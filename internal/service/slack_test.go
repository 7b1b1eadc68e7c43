package service

import (
	"context"
	"testing"

	"nfvchain/internal/workload"
)

// paperSolveRequest is a perfbench-sized solve: 500 requests over the
// paper's 15 VNFs and 10 nodes, demand scaled to 70% of capacity.
func paperSolveRequest(t *testing.T) SolveRequest {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed = 3
	cfg.NumRequests = 500
	p, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scale := 0.7 * p.TotalCapacity() / p.TotalDemand()
	for i := range p.VNFs {
		p.VNFs[i].Demand *= scale
	}
	return SolveRequest{Problem: p, Options: SolveOptions{Seed: 1}}
}

// TestResultSlack measures the capacity a stored result holds beyond its
// length, for the solve, race and simulate paths, and pins it to the
// allocator's rounding of the length to its size class. Each result is the
// one Write of a document into an empty bytes.Buffer, which allocates just
// that. Measured: 760 bytes (0.44%) on a 167 KiB solve result, 3.5 KiB
// (0.78%) on a 452 KiB simulate result, 86 bytes on a 1.2 KiB race result.
func TestResultSlack(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	submit := map[string]func() (*JobStatus, error){
		"solve": func() (*JobStatus, error) { return c.Solve(ctx, paperSolveRequest(t)) },
		"race":  func() (*JobStatus, error) { return c.Solve(ctx, anytimeRequest(t, 0, "greedy", "sa:iters=200")) },
		"simulate": func() (*JobStatus, error) {
			return c.Simulate(ctx, SimulateRequest{Problem: paperSolveRequest(t).Problem, Sim: SimOptions{Horizon: 0.5, Seed: 2}})
		},
	}
	for name, post := range submit {
		st, err := post()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st, err = c.Wait(ctx, st.ID); err != nil || st.State != StateDone {
			t.Fatalf("%s: wait: %v, state %s", name, err, st.State)
		}
		s.mu.Lock()
		res := s.jobs[st.ID].result
		s.mu.Unlock()
		slack := cap(res) - len(res)
		t.Logf("%s: len %d, cap %d, slack %d bytes (%.2f%%)", name, len(res), cap(res), slack, 100*float64(slack)/float64(len(res)))
		if class := cap(append([]byte(nil), make([]byte, len(res))...)); cap(res) != class {
			t.Errorf("%s: result of %d bytes has capacity %d, not its size class %d", name, len(res), cap(res), class)
		}
	}
}
