package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/crossbar"
	"einsteinbarrier/internal/device"
)

// A TacitMapped fans its per-tile passes out over GOMAXPROCS workers.
// Every array owns its RNG and is touched by one worker per call, so the
// outputs, write counts and every array's state must not depend on the
// worker count.

// fanOutRun maps a noisy multi-tile layer at the current GOMAXPROCS,
// drives it through a fixed sequence of executions, ageing steps, fault
// injections and recalibrations, and returns every result in order
// with the mapped layer.
func fanOutRun(t *testing.T, tech device.Technology) ([]int, *TacitMapped) {
	t.Helper()
	mapped, x := allocTestLayer(t, tech)
	if p := mapped.Plan(); p.RowTiles < 4 || p.ColTiles < 2 {
		t.Fatalf("plan %d×%d tiles, want at least 4×2", p.RowTiles, p.ColTiles)
	}
	y := x.Not() // a second input with a different driven-row set
	var got []int
	exec := func() {
		for _, in := range []*bitops.Vector{x, y} {
			out, err := mapped.ExecuteInto(in, nil)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, out...)
		}
		if tech == device.OPCM {
			outs, err := mapped.ExecuteMMMInto([]*bitops.Vector{x, y, x}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, out := range outs {
				got = append(got, out...)
			}
		}
	}
	inject := func(seed int64) {
		n, err := mapped.InjectFaults(crossbar.FaultModel{StuckOnRate: 0.02, StuckOffRate: 0.03, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, n)
	}
	recal := func() {
		set, reset := mapped.Reprogram()
		got = append(got, int(set), int(reset))
	}
	exec()
	mapped.Age(100)
	exec()
	inject(5)
	mapped.Age(3e3)
	exec()
	recal()
	exec()
	inject(6)
	mapped.Age(40)
	exec()
	recal()
	mapped.Age(1e5)
	exec()
	return got, mapped
}

// planeBits reads an array's float planes (unexported in crossbar) as
// raw bits.
func planeBits(a *crossbar.Array) []uint64 {
	v := reflect.ValueOf(a).Elem()
	var bits []uint64
	for _, name := range []string{"prog", "age", "sig"} {
		f := v.FieldByName(name)
		for i := 0; i < f.Len(); i++ {
			bits = append(bits, math.Float64bits(f.Index(i).Float()))
		}
	}
	return bits
}

func TestTileFanOutBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tech := range []device.Technology{device.EPCM, device.OPCM} {
		runtime.GOMAXPROCS(1)
		want, ref := fanOutRun(t, tech)
		for _, procs := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			got, mapped := fanOutRun(t, tech)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v GOMAXPROCS=%d: results differ from the one-worker run", tech, procs)
			}
			for i, a := range mapped.tiles {
				wb, gb := planeBits(ref.tiles[i]), planeBits(a)
				for j := range wb {
					if gb[j] != wb[j] {
						t.Fatalf("%v GOMAXPROCS=%d tile %d: plane slot %d is %x, %x with one worker",
							tech, procs, i, j, gb[j], wb[j])
					}
				}
				// The rest of the array state — RNG position, bit planes,
				// fault mask, event counters — must match as well.
				if !reflect.DeepEqual(a, ref.tiles[i]) {
					t.Fatalf("%v GOMAXPROCS=%d tile %d: array state differs from the one-worker run", tech, procs, i)
				}
			}
		}
	}
}

// TestExecuteIntoZeroAllocsFanOut pins the zero-alloc contract on the
// goroutine path. testing.AllocsPerRun forces GOMAXPROCS to 1, so this
// counts heap allocations with a MemStats delta at GOMAXPROCS 2. The
// runtime itself now and then allocates inside a window (it starts an
// OS thread to wake an idle core, or refills a parking cache); those
// one-offs do not repeat, while a per-call allocation shows in every
// window, so the least of five windows must be zero.
func TestExecuteIntoZeroAllocsFanOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tech := range []device.Technology{device.EPCM, device.OPCM} {
		mapped, x := allocTestLayer(t, tech)
		out := make([]int, mapped.Plan().N)
		var failed error
		run := func(n int) {
			for range n {
				if _, err := mapped.ExecuteInto(x, out); err != nil {
					failed = err
				}
			}
		}
		// Start the helper pool and the GC's per-P workers, then warm
		// the runtime's parking caches (a collection empties them).
		run(1)
		runtime.GC()
		run(300)
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(100)
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		if failed != nil {
			t.Fatal(failed)
		}
		if least != 0 {
			t.Fatalf("%v ExecuteInto at GOMAXPROCS 2: at least %d allocations in every window of 100 runs", tech, least)
		}
	}
}
