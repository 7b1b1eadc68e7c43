package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachPointTrialOrdering(t *testing.T) {
	const points, trials = 7, 13
	got, err := forEachPointTrial(points, trials, func(point, trial int) (int, error) {
		return point*1000 + trial, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != points {
		t.Fatalf("points = %d, want %d", len(got), points)
	}
	for p := range got {
		if len(got[p]) != trials {
			t.Fatalf("point %d: trials = %d, want %d", p, len(got[p]), trials)
		}
		for tr, v := range got[p] {
			if v != p*1000+tr {
				t.Fatalf("result[%d][%d] = %d, want %d", p, tr, v, p*1000+tr)
			}
		}
	}
}

func TestForEachPointTrialZeroPoints(t *testing.T) {
	got, err := forEachPointTrial(0, 5, func(int, int) (int, error) {
		t.Error("fn called with zero points")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("zero points: %v %v", got, err)
	}
}

// TestForEachPointTrialWorkerClamp pins the workers > jobs clamp: with only
// two jobs, no more than two may ever be in flight, however many cores
// GOMAXPROCS offers.
func TestForEachPointTrialWorkerClamp(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 3 {
		t.Skip("needs GOMAXPROCS >= 3 to observe the clamp")
	}
	var inFlight, peak atomic.Int64
	var release sync.WaitGroup
	release.Add(2) // both jobs must overlap before either finishes
	_, err := forEachPointTrial(1, 2, func(_, trial int) (int, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		release.Done()
		release.Wait()
		return trial, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != 2 {
		t.Fatalf("peak concurrency = %d, want exactly 2 (jobs), not GOMAXPROCS=%d",
			got, runtime.GOMAXPROCS(0))
	}
}

// TestForEachPointTrialFirstErrorWins forces a single worker so the claim
// order is the serial job order, then plants failures at trials 5 and 7: the
// earliest-claimed failure must be the one reported, and the worker must
// drain — no job after the failing one may run.
func TestForEachPointTrialFirstErrorWins(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	errFirst := errors.New("first")
	errLater := errors.New("later")
	var calls atomic.Int64
	_, err := forEachPointTrial(1, 100, func(_, trial int) (int, error) {
		calls.Add(1)
		switch trial {
		case 5:
			return 0, fmt.Errorf("trial 5: %w", errFirst)
		case 7:
			return 0, fmt.Errorf("trial 7: %w", errLater)
		}
		return trial, nil
	})
	if !errors.Is(err, errFirst) {
		t.Fatalf("err = %v, want the trial-5 error", err)
	}
	if got := calls.Load(); got != 6 {
		t.Fatalf("calls = %d, want 6 (trials 0..5, then drain)", got)
	}
}

// TestFigPointAggregateParallelismInvariant asserts the promise the whole
// sweep pipeline rests on: a figure point's aggregate is a trial-index-order
// fold, so its value is bit-identical whether the pool ran on one core or
// eight.
func TestFigPointAggregateParallelismInvariant(t *testing.T) {
	cfg := Config{Seed: 3, PlacementTrials: 3, SchedulingTrials: 12}
	run := func(procs int) *Table {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		tab, err := Run("fig11", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	serial, wide := run(1), run(8)
	if len(serial.Series) != len(wide.Series) {
		t.Fatalf("series count differs: %d vs %d", len(serial.Series), len(wide.Series))
	}
	for si := range serial.Series {
		for i := range serial.Series[si].Y {
			if serial.Series[si].Y[i] != wide.Series[si].Y[i] {
				t.Fatalf("%s[%d]: GOMAXPROCS(1) gives %v, GOMAXPROCS(8) gives %v",
					serial.Series[si].Label, i, serial.Series[si].Y[i], wide.Series[si].Y[i])
			}
		}
	}
}

func TestParallelExperimentsDeterministic(t *testing.T) {
	// The parallel fold must be bit-identical across runs (and hence to a
	// serial execution): same seeds, same trial-order aggregation.
	cfg := Config{Seed: 1, PlacementTrials: 4, SchedulingTrials: 20}
	for _, id := range []string{"fig5", "fig11"} {
		a, err := Run(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Series) != len(b.Series) {
			t.Fatalf("%s: series count differs", id)
		}
		for si := range a.Series {
			for i := range a.Series[si].Y {
				if a.Series[si].Y[i] != b.Series[si].Y[i] {
					t.Fatalf("%s: %s[%d] differs across runs: %v vs %v",
						id, a.Series[si].Label, i, a.Series[si].Y[i], b.Series[si].Y[i])
				}
			}
		}
	}
}

// TestForEachPointTrialCtxCancel asserts a cancelled sweep stops claiming
// new cells promptly and reports ctx.Err().
func TestForEachPointTrialCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	var once sync.Once
	_, err := forEachPointTrialCtx(ctx, 10, 100, func(point, trial int) (int, error) {
		calls.Add(1)
		once.Do(cancel) // cancel from inside the first claimed cell
		return point*1000 + trial, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// After the cancellation, at most one in-flight cell per worker may
	// still finish; nothing new is claimed.
	if got := calls.Load(); got > int64(runtime.GOMAXPROCS(0)+1) {
		t.Errorf("calls = %d after immediate cancel, want at most one per worker", got)
	}
}

// TestForEachPointTrialCtxFirstErrorWins asserts an fn error observed before
// the cancellation still wins over ctx.Err().
func TestForEachPointTrialCtxFirstErrorWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	var once sync.Once
	_, err := forEachPointTrialCtx(ctx, 1, 50, func(_, trial int) (int, error) {
		var failed bool
		once.Do(func() { failed = true })
		if failed {
			defer cancel()
			return 0, boom
		}
		return trial, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom (first error wins over cancellation)", err)
	}
}

// TestForEachPointTrialCtxBackground asserts the Background path is the
// plain forEachPointTrial behavior.
func TestForEachPointTrialCtxBackground(t *testing.T) {
	got, err := forEachPointTrialCtx(context.Background(), 2, 3, func(point, trial int) (int, error) {
		return point*10 + trial, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range got {
		for tr, v := range got[p] {
			if v != p*10+tr {
				t.Fatalf("result[%d][%d] = %d", p, tr, v)
			}
		}
	}
}
