// Package core implements the paper's joint optimization pipeline: phase
// one places VNF chains on computing nodes (Section IV-A, default BFDSU),
// phase two schedules requests onto service instances (Section IV-B, default
// RCKK), with admission control enforcing per-instance stability. It also
// evaluates solutions analytically — Objective 1 (Eq. 13/14), Objective 2
// (Eq. 15) and the combined total latency (Eq. 16) — and bridges to the
// discrete-event simulator for empirical validation.
package core

import (
	"context"
	"fmt"

	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
)

// Options configures the pipeline. Zero values select the paper's proposed
// algorithms.
type Options struct {
	// Placer is the phase-one algorithm; nil means BFDSU with Seed.
	Placer placement.Algorithm
	// Scheduler is the phase-two algorithm; nil means RCKK.
	Scheduler scheduling.Partitioner
	// LinkDelay is the constant per-hop latency L of Eq. 16.
	LinkDelay float64
	// DisableAdmissionControl keeps overloaded assignments instead of
	// rejecting requests; Evaluate will then fail on unstable instances.
	DisableAdmissionControl bool
	// Seed drives the default BFDSU placer.
	Seed uint64
}

// Solution is the output of the two-phase pipeline.
type Solution struct {
	Problem   *model.Problem
	Placement *model.Placement
	// PlacementIterations is the Fig. 10 execution-cost counter.
	PlacementIterations int
	// Schedule has admission control already applied (unless disabled).
	Schedule *model.Schedule
	// Rejected lists requests dropped by admission control.
	Rejected []model.RequestID
	// RejectionRate is the paper's job rejection rate (Figs. 15–16).
	RejectionRate float64
	// LinkDelay echoes the L used for Eq. 16 evaluation.
	LinkDelay float64
}

// Optimize runs placement then scheduling on the problem.
func Optimize(p *model.Problem, opts Options) (*Solution, error) {
	return OptimizeValid(model.Compile(p), opts)
}

// OptimizeValid is Optimize on an index already built: it returns the
// fault the build found, if any, and otherwise places and schedules on ix
// without checking the problem again.
func OptimizeValid(ix *model.Index, opts Options) (*Solution, error) {
	if err := ix.Fault(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p := ix.Problem()
	placer := opts.Placer
	if placer == nil {
		placer = &placement.BFDSU{Seed: opts.Seed}
	}
	scheduler := opts.Scheduler
	if scheduler == nil {
		scheduler = scheduling.RCKK{}
	}

	placed, err := placer.PlaceValid(p)
	if err != nil {
		return nil, fmt.Errorf("core: placement (%s): %w", placer.Name(), err)
	}
	sched, err := scheduling.ScheduleValid(ix, scheduler)
	if err != nil {
		return nil, fmt.Errorf("core: scheduling (%s): %w", scheduler.Name(), err)
	}

	sol := &Solution{
		Problem:             p,
		Placement:           placed.Placement,
		PlacementIterations: placed.Iterations,
		Schedule:            sched,
		LinkDelay:           opts.LinkDelay,
	}
	if !opts.DisableAdmissionControl {
		adm, err := scheduling.ApplyAdmissionControl(p, sched)
		if err != nil {
			return nil, fmt.Errorf("core: admission control: %w", err)
		}
		sol.Schedule = adm.Admitted
		sol.Rejected = adm.Rejected
		sol.RejectionRate = adm.RejectionRate
	}
	return sol, nil
}

// SimulationConfig is the simulator's config. Simulate, SimulateContext,
// SimulateWith and SimulateCluster set its Problem, Schedule, Placement and
// LinkDelay from the solution and clear InjectOnly (these entry points never
// Inject, and the cluster driver marks its own globally routed requests), so
// values a caller puts there are ignored.
type SimulationConfig = simulate.Config

// Simulate runs the discrete-event simulator on a solution, wiring in its
// placement, post-admission schedule and link delay.
func Simulate(sol *Solution, cfg SimulationConfig) (*simulate.Results, error) {
	return SimulateContext(context.Background(), sol, cfg)
}

// SimulateContext is Simulate with cancellation: the event loop runs in
// chunks of simulate.CtxCheckInterval events, polls ctx between them and
// aborts with ctx.Err() when it fires. With a background context it is
// bit-identical to Simulate.
func SimulateContext(ctx context.Context, sol *Solution, cfg SimulationConfig) (*simulate.Results, error) {
	return simulate.RunContext(ctx, simConfig(sol, cfg))
}

// SimulateWith runs the simulation on a caller-provided reusable Simulator,
// amortizing run-state allocation across runs (the serving daemon's worker
// pool path). The returned Results aliases the simulator's buffers and is
// only valid until its next Reset; outputs are bit-identical to Simulate
// under the same config and seed.
func SimulateWith(ctx context.Context, sim *simulate.Simulator, sol *Solution, cfg SimulationConfig) (*simulate.Results, error) {
	if err := sim.Reset(simConfig(sol, cfg)); err != nil {
		return nil, err
	}
	return sim.RunContext(ctx)
}

// simConfig wires a solution's problem, post-admission schedule, placement
// and link delay into cfg and clears InjectOnly.
func simConfig(sol *Solution, cfg SimulationConfig) simulate.Config {
	cfg.Problem, cfg.Schedule, cfg.Placement, cfg.LinkDelay = sol.Problem, sol.Schedule, sol.Placement, sol.LinkDelay
	cfg.InjectOnly = nil
	return cfg
}
