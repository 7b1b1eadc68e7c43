package main

import (
	"context"
	"io"
	"strings"
	"syscall"
	"testing"
	"time"

	"nfvchain/internal/model"
	"nfvchain/internal/service"
)

// tinyProblem is a minimal solvable instance for the round-trip probe.
func tinyProblem() *model.Problem {
	return &model.Problem{
		Nodes:    []model.Node{{ID: "n1", Capacity: 4}},
		VNFs:     []model.VNF{{ID: "fw", Instances: 1, Demand: 1, ServiceRate: 50}},
		Requests: []model.Request{{ID: "r1", Chain: []model.VNFID{"fw"}, Rate: 5, DeliveryProb: 0.95}},
	}
}

// TestRunServesAndDrainsOnSignal boots the daemon on a random port, runs a
// health probe and one solve round-trip through the Go client, then delivers
// SIGINT and expects a clean exit.
func TestRunServesAndDrainsOnSignal(t *testing.T) {
	ready := make(chan string, 1)
	var out strings.Builder
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-drain", "10s"}, &out, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errCh:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := service.NewClient("http://" + addr)
	if err := c.Healthy(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.Solve(ctx, service.SolveRequest{Problem: tinyProblem()})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil || st.State != service.StateDone {
		t.Fatalf("wait: %v, state %+v", err, st)
	}
	if _, err := c.SolveResult(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGINT")
	}
	for _, want := range []string{"listening on http://127.0.0.1:", "shutting down", "bye"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunRejectsBadFlags pins flag-parse and listen errors to non-nil
// returns rather than os.Exit deep in the daemon.
func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard, nil); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-addr", "256.256.256.256:1"}, io.Discard, nil); err == nil {
		t.Error("unlistenable address accepted")
	}
	// The unlistenable address makes a run that accepted the flag fail
	// rather than serve; only the flag check names -retain.
	if err := run([]string{"-addr", "256.256.256.256:1", "-retain", "-1"}, io.Discard, nil); err == nil || !strings.Contains(err.Error(), "-retain") {
		t.Errorf("negative -retain: got %v, want a -retain error", err)
	}
}
