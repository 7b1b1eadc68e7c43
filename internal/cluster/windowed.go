package cluster

import (
	"context"
	"math"

	"nfvchain/internal/simulate"
)

// drainChunk bounds how many events a datacenter drains between cancellation
// checks, mirroring the sequential driver's polling cadence.
const drainChunk = simulate.CtxCheckInterval

// runWindowed advances the composition in conservative windows. Datacenters
// only interact at global arrival instants, so between consecutive arrivals
// every datacenter can drain its own agenda independently:
//
//   - The barrier is the earliest pending global arrival time arrT. Each
//     datacenter a global flow can reach drains inclusively to the barrier —
//     exactly the events the sequential driver would process before routing
//     that arrival (ties at arrT go to datacenter events there too).
//   - Datacenters no global flow can reach are invisible to every routing
//     decision (built-in policies only read DCState.Pending for CanServe
//     datacenters — the documented Config.Workers contract), so they drain
//     straight to the horizon in the first window.
//   - When the router is LoadOblivious its decisions never read live load, so
//     a serving datacenter may drain past the barrier up to the earliest time
//     a future arrival could enter it: next[i] for flows homed there, and
//     next[i]+WANLatency for flows that would pay the WAN entry hop. That
//     keeps every injection at or after the datacenter's local clock.
//
// Each window drains its datacenters one after another, then routes and
// injects the barrier arrival, so results are bit-identical to the
// sequential driver.
func (c *ClusterSimulator) runWindowed(ctx context.Context) error {
	n := len(c.sims)

	oblivious := false
	if lo, ok := c.router.(LoadOblivious); ok {
		oblivious = lo.LoadOblivious()
	}
	servesGlobal := make([]bool, n)
	for i := range c.canServe {
		for d, ok := range c.canServe[i] {
			if ok {
				servesGlobal[d] = true
			}
		}
	}

	for {
		// Barrier: the earliest pending global arrival (+Inf when none
		// remain, which makes the last window drain everything).
		minA, arrT := -1, math.Inf(1)
		for i, t := range c.next {
			if t < arrT {
				minA, arrT = i, t
			}
		}

		// Drain every datacenter to its limit for this window.
		for d := 0; d < n; d++ {
			var limit float64
			switch {
			case !servesGlobal[d]:
				limit = math.Inf(1)
			case !oblivious:
				limit = arrT
			default:
				limit = math.Inf(1)
				for i, t := range c.next {
					if !c.canServe[i][d] || math.IsInf(t, 1) {
						continue
					}
					if c.cfg.Global[i].Home != d {
						t += c.cfg.WANLatency
					}
					if t < limit {
						limit = t
					}
				}
			}
			if c.times[d] > limit {
				continue
			}
			if err := drainDC(ctx, c.sims[d], limit); err != nil {
				return err
			}
			c.times[d] = c.sims[d].PeekNextEventTime()
		}

		if err := ctx.Err(); err != nil {
			return err
		}
		if minA < 0 {
			return nil
		}
		c.routeArrival(minA, arrT)
		c.next[minA] = c.nextArrival(minA, arrT, c.res.Horizon)
	}
}

// drainDC drains one datacenter inclusively to t in drainChunk-sized batches,
// checking ctx between batches so cancellation interrupts even a window
// holding millions of events.
func drainDC(ctx context.Context, sim *simulate.Simulator, t float64) error {
	for sim.DrainUntil(t, drainChunk) == drainChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}
