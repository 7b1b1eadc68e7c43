package experiment

import (
	"context"
	"runtime"
	"sync"
)

// forEachPointTrial runs fn(point, trial) for every pair in
// [0, points) × [0, trials) on ONE bounded worker pool spanning the whole
// sweep, and returns the results as results[point][trial]. Jobs are claimed
// in (point, trial) order but may complete in any order; callers aggregate
// per point by folding trials in index order, so downstream floating-point
// folds are bit-identical to a serial sweep.
//
// A single cross-point queue is what keeps `-fig all` busy: with a per-point
// pool, every sweep point ends with a tail of idle cores waiting for its
// slowest trial before the next point may start. Here the first trials of
// point k+1 start the moment workers free up, so the only idle tail is the
// final one of the whole sweep.
//
// The first error wins; remaining workers drain without claiming new jobs.
func forEachPointTrial[T any](points, trials int, fn func(point, trial int) (T, error)) ([][]T, error) {
	return forEachPointTrialCtx(context.Background(), points, trials, fn)
}

// forEachPointTrialCtx is forEachPointTrial with cancellation: once ctx
// fires no new (point, trial) cell is claimed — in-flight cells finish, so
// the sweep stops within one cell per worker — and the sweep returns
// ctx.Err(). First-error-wins semantics are preserved: an fn error observed
// before the cancellation still wins over ctx.Err().
func forEachPointTrialCtx[T any](ctx context.Context, points, trials int, fn func(point, trial int) (T, error)) ([][]T, error) {
	results := make([][]T, points)
	flat := make([]T, points*trials)
	for p := range results {
		results[p] = flat[p*trials : (p+1)*trials : (p+1)*trials]
	}
	jobs := points * trials
	// GOMAXPROCS (not NumCPU) respects container CPU quotas and explicit
	// user overrides; NumCPU would oversubscribe a quota-limited cgroup.
	workers := runtime.GOMAXPROCS(0)
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	done := ctx.Done()
	claim := func() (int, bool) {
		if done != nil && ctx.Err() != nil {
			return 0, false
		}
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= jobs {
			return 0, false
		}
		j := next
		next++
		return j, true
	}
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				j, ok := claim()
				if !ok {
					return
				}
				out, err := fn(j/trials, j%trials)
				if err != nil {
					fail(err)
					return
				}
				results[j/trials][j%trials] = out
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
