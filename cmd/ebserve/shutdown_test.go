package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/serve"
)

// TestGracefulShutdownDropsNoAdmittedRequest cancels a serving loop
// while clients stream /infer requests over loopback: every request that
// was admitted (it carries an X-Request-ID) gets its 200, and the
// server's Completed count equals the number of 200s the clients saw.
func TestGracefulShutdownDropsNoAdmittedRequest(t *testing.T) {
	o := options{backend: "software", maxBatch: 8, maxWait: 2 * time.Millisecond, workers: 1, noPrice: true}
	model, err := bnn.NewModel("MLP-S", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildServer(o, model, arch.EinsteinBarrier, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serveUntil(ctx, ln, s.Handler(), s.Stop) }()

	body, _ := json.Marshal(serve.InferRequest{Input: make([]float64, 784)})
	url := "http://" + ln.Addr().String() + "/infer"
	type outcome struct {
		status   int
		admitted bool
	}
	const clients = 8
	results := make([][]outcome, clients)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				resp, err := http.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					return // the listener is closed
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				results[c] = append(results[c], outcome{resp.StatusCode, resp.Header.Get("X-Request-ID") != ""})
			}
		}(c)
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().Completed < 40 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for traffic")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("serveUntil: %v", err)
	}
	wg.Wait()

	var ok, admitted int64
	for _, rs := range results {
		for _, r := range rs {
			if r.admitted {
				admitted++
				if r.status != http.StatusOK {
					t.Errorf("admitted request answered %d, want 200", r.status)
				}
			}
			if r.status == http.StatusOK {
				ok++
			}
		}
	}
	if got := s.Stats().Completed; got != ok || admitted != ok {
		t.Fatalf("Completed = %d, admitted replies %d, 200 replies %d: want all equal", got, admitted, ok)
	}
}
