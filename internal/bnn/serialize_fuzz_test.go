package bnn

import (
	"bytes"
	"testing"
)

// FuzzSerializeRoundTrip pins the EBNN format's canonical-form
// property: any byte stream that decodes into a valid model re-encodes
// to a stable canonical encoding — Encode→Decode→Encode is
// byte-identical. Seeds are the paper's three network shapes (a
// pool+conv CNN on MNIST-class input, a CIFAR-class conv stack, and a
// pure MLP), so the fuzzer starts from every layer tag the format
// knows.
func FuzzSerializeRoundTrip(f *testing.F) {
	for _, name := range []string{"CNN-S", "CNN-M", "MLP-S"} {
		m, err := NewModel(name, 3)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteModel(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Adversarial seeds: a well-formed stream whose shapes do not chain,
	// truncated magic, bad version, empty stream.
	var unchained bytes.Buffer
	if err := WriteModel(&unchained, unchainedPool()); err != nil {
		f.Fatal(err)
	}
	f.Add(unchained.Bytes())
	f.Add([]byte("EBNN"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadModel(bytes.NewReader(data))
		if err != nil {
			return // malformed input must fail cleanly, never panic
		}
		var enc1 bytes.Buffer
		if err := WriteModel(&enc1, m); err != nil {
			t.Fatalf("decoded model does not re-encode: %v", err)
		}
		m2, err := ReadModel(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		var enc2 bytes.Buffer
		if err := WriteModel(&enc2, m2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("Encode→Decode→Encode not byte-identical: %d vs %d bytes", enc1.Len(), enc2.Len())
		}
	})
}
