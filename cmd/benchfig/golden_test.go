package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestGoldenOutputs pins every report benchfig renders against files
// captured before the shared report table replaced the hand-written
// renderers. CSV and JSON must match byte for byte; text must match
// field by field (strings.Fields), so the table aligner may re-pad
// columns but never change a header, a value or a row.
func TestGoldenOutputs(t *testing.T) {
	placement := []string{"-fig", "placement", "-batch", "8", "-placers", "greedy,mesh,shard,search", "-search-steps", "16"}
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"fig7.txt", []string{"-fig", "7"}},
		{"fig7_summary.txt", []string{"-fig", "7", "-summary"}},
		{"fig8.txt", []string{"-fig", "8"}},
		{"fig7.csv", []string{"-fig", "7", "-csv"}},
		{"fig7.json", []string{"-fig", "7", "-json"}},
		{"batch.txt", []string{"-fig", "batch", "-batch", "1,8"}},
		{"batch.csv", []string{"-fig", "batch", "-batch", "1,8", "-csv"}},
		{"batch.json", []string{"-fig", "batch", "-batch", "1,8", "-json"}},
		{"placement.txt", placement},
		{"placement.csv", append(placement[:len(placement):len(placement)], "-csv")},
		{"placement.json", append(placement[:len(placement):len(placement)], "-json")},
		{"steps.txt", []string{"-fig", "steps"}},
		{"area.txt", []string{"-fig", "area"}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			got := runOK(t, tc.args...)
			if strings.HasSuffix(tc.file, ".txt") {
				if !reflect.DeepEqual(strings.Fields(got), strings.Fields(string(want))) {
					t.Fatalf("benchfig %v text differs from %s:\n--- got\n%s--- want\n%s", tc.args, tc.file, got, want)
				}
				return
			}
			if got != string(want) {
				t.Fatalf("benchfig %v differs from %s:\n--- got\n%s--- want\n%s", tc.args, tc.file, got, want)
			}
		})
	}
}
