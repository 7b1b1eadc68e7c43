package workload

import (
	"io"
	"math"
	"sort"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
	"nfvchain/internal/stats"
)

// TraceStats summarizes one request's arrival process in a recorded trace.
// It answers the question the paper's model quietly assumes away: *is this
// flow actually Poisson?* — via the inter-arrival coefficient of variation
// (1 for exponential gaps) and a Kolmogorov–Smirnov test against the fitted
// exponential distribution.
type TraceStats struct {
	Request model.RequestID
	// Count is the number of arrivals observed.
	Count int
	// Rate is the empirical mean arrival rate (arrivals / horizon).
	Rate float64
	// MeanGap and CVGap describe the inter-arrival gaps; CV ≈ 1 indicates
	// exponential (Poisson process), CV ≫ 1 indicates burstiness.
	MeanGap, CVGap float64
	// KSStatistic is the Kolmogorov–Smirnov distance between the empirical
	// gap distribution and Exp(1/MeanGap).
	KSStatistic float64
	// PoissonLike reports whether KSStatistic is below the 5% critical
	// value 1.358/√n — i.e. exponential gaps are not rejected.
	PoissonLike bool
}

// AnalyzeTrace computes per-request arrival statistics, sorted by request
// id. Requests with fewer than three arrivals are reported with Count/Rate
// only (no gap statistics).
func AnalyzeTrace(t *Trace) []TraceStats {
	byReq := make(map[model.RequestID][]float64)
	for _, a := range t.Arrivals {
		byReq[a.Request] = append(byReq[a.Request], a.Time)
	}
	out := make([]TraceStats, 0, len(byReq))
	for id, times := range byReq {
		st := TraceStats{Request: id, Count: len(times)}
		if t.Horizon > 0 {
			st.Rate = float64(len(times)) / t.Horizon
		}
		if len(times) >= 3 {
			sort.Float64s(times)
			gaps := make([]float64, len(times)-1)
			var sum stats.Summary
			for i := 1; i < len(times); i++ {
				gaps[i-1] = times[i] - times[i-1]
				sum.Add(gaps[i-1])
			}
			st.MeanGap = sum.Mean()
			if st.MeanGap > 0 {
				st.CVGap = sum.StdDev() / st.MeanGap
				st.KSStatistic = ksExponential(gaps, 1/st.MeanGap)
				critical := 1.358 / math.Sqrt(float64(len(gaps)))
				st.PoissonLike = st.KSStatistic < critical
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Request < out[j].Request })
	return out
}

// analysisReservoir bounds the per-request gap sample AnalyzeArrivals keeps
// for the KS test; 2048 gaps put the 5% critical value at 0.03, fine enough
// to separate Poisson from bursty processes.
const analysisReservoir = 2048

// analysisSeed derives the deterministic reservoir-sampling streams; it is a
// fixed constant because the analysis is a diagnostic — two passes over the
// same cursor always report identical statistics.
const analysisSeed = 0x9e3779b97f4a7c15

// AnalyzeArrivals is the one-pass streaming counterpart of AnalyzeTrace: it
// computes per-request arrival statistics from a cursor without holding any
// arrival times, so workload-realism KPIs work on 10M-arrival traces in
// O(#requests) memory. Count, Rate, MeanGap and CVGap are exact (Welford
// accumulation); the KS statistic is computed over a deterministic reservoir
// sample of at most analysisReservoir gaps per request — exact for requests
// with no more gaps than that, an unbiased estimate beyond. A positive
// horizon both scales Rate and bounds the pull — arrivals at or past it are
// not consumed, which is what makes never-ending generator cursors (a
// MergedStream over renewal sources) analyzable at all; pass <= 0 to drain
// a finite cursor and use the latest arrival time observed.
func AnalyzeArrivals(c ArrivalCursor, horizon float64) ([]TraceStats, error) {
	type reqState struct {
		count int
		last  float64
		gaps  stats.Summary
		res   []float64
		s     *rng.Stream
	}
	byReq := make(map[model.RequestID]*reqState)
	maxTime := 0.0
	for {
		t, id, ok := c.NextArrival()
		if !ok || (horizon > 0 && t >= horizon) {
			break
		}
		if t > maxTime {
			maxTime = t
		}
		st := byReq[id]
		if st == nil {
			st = &reqState{s: rng.Derive(analysisSeed, "analyze/"+string(id))}
			byReq[id] = st
		}
		if st.count > 0 {
			gap := t - st.last
			st.gaps.Add(gap)
			// Reservoir sampling (algorithm R) over the gap sequence.
			if len(st.res) < analysisReservoir {
				st.res = append(st.res, gap)
			} else if j := st.s.IntN(st.gaps.N()); j < analysisReservoir {
				st.res[j] = gap
			}
		}
		st.count++
		st.last = t
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		horizon = maxTime
	}
	out := make([]TraceStats, 0, len(byReq))
	for id, st := range byReq {
		ts := TraceStats{Request: id, Count: st.count}
		if horizon > 0 {
			ts.Rate = float64(st.count) / horizon
		}
		if st.count >= 3 {
			ts.MeanGap = st.gaps.Mean()
			if ts.MeanGap > 0 {
				ts.CVGap = st.gaps.StdDev() / ts.MeanGap
				ts.KSStatistic = ksExponential(st.res, 1/ts.MeanGap)
				critical := 1.358 / math.Sqrt(float64(len(st.res)))
				ts.PoissonLike = ts.KSStatistic < critical
			}
		}
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Request < out[j].Request })
	return out, nil
}

// AnalyzeTraceCSV streams a trace CSV through AnalyzeArrivals — the
// constant-memory replacement for loading the whole trace and calling
// AnalyzeTrace.
func AnalyzeTraceCSV(r io.Reader) ([]TraceStats, error) {
	ts, err := NewTraceStream(r)
	if err != nil {
		return nil, err
	}
	return AnalyzeArrivals(ts, 0)
}

// ksExponential returns the Kolmogorov–Smirnov statistic between the sample
// and the exponential distribution with the given rate. The sample is not
// modified.
func ksExponential(sample []float64, rate float64) float64 {
	xs := append([]float64(nil), sample...)
	sort.Float64s(xs)
	n := float64(len(xs))
	var d float64
	for i, x := range xs {
		f := 1 - math.Exp(-rate*x)
		lo := f - float64(i)/n
		hi := float64(i+1)/n - f
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d
}
