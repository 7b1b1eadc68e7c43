// Package control implements an online control plane for the fault-injected
// simulator: a Navarch-style pool manager that runs as a periodic
// simulate.ControlHook on top of the repair controller's inventory and
// placement machinery. Where internal/repair only reacts to node failures,
// this controller watches live per-instance utilization ρ over each tick
// window and continuously reshapes the deployment:
//
//   - Autoscaling: a VNF whose active instances run hot (mean ρ above
//     Config.ScaleUpUtil) gains a replica — placed by the repair
//     controller's BFDSU residual-capacity draw and paying the boot cost
//     (repair.SetupCostVM or repair.SetupCostClickOS) before it serves; one
//     running cold (mean ρ below Config.ScaleDownUtil, with slack to spare)
//     drains and retires an instance, shrinking M_f without losing
//     in-flight packets.
//
//   - Migration: instances stranded on failed nodes, or crowded onto hot
//     nodes, are moved to better hosts for an explicit migration cost
//     (freeze + transfer delay); requests are rebalanced across the move
//     with the same RCKK partitioning the repair paths use. When a
//     correlated preemption announces itself ahead of time
//     (simulate.PreemptionPlan.LeadTime), the controller evacuates the
//     doomed nodes before the loss.
//
//   - Graceful degradation: when even the reshaped pool cannot cover the
//     offered load at the target utilization, the controller sheds the
//     uncoverable admission fraction deterministically
//     (RepairControl.SetShedFraction) instead of letting queues diverge.
//
// Every decision is deterministic at a fixed seed: observation order follows
// the instance table and the problem's VNF order, placement draws come from
// the repair controller's seeded decision counter, and shedding uses an
// RNG-free error accumulator. Attaching no controller (simulate.Config.
// Control == nil) leaves runs bit-identical to historical ones.
package control

import (
	"fmt"
	"math"

	"nfvchain/internal/model"
	"nfvchain/internal/repair"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
)

// Policy selects how much of the control plane is active. Policies are
// ordered: each level includes everything below it.
type Policy int

// Supported policies.
const (
	// PolicyNone disables the control plane entirely — the unmitigated
	// baseline. Hooks attached anyway are inert.
	PolicyNone Policy = iota
	// PolicyRepair reacts to node transitions exactly like a
	// repair.Controller in reschedule+replace mode, but never acts between
	// them: no autoscaling, no migration, no shedding.
	PolicyRepair
	// PolicyAutoscale adds the periodic tick loop: utilization-driven
	// scale-up/scale-down and deterministic admission shedding under
	// capacity shortage.
	PolicyAutoscale
	// PolicyAutoscaleMigrate additionally migrates instances — off failed
	// nodes, off hot nodes, and (given advance notice) off nodes about to
	// be preempted.
	PolicyAutoscaleMigrate
)

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyRepair:
		return "repair"
	case PolicyAutoscale:
		return "autoscale"
	case PolicyAutoscaleMigrate:
		return "autoscale+migrate"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a -control flag value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "none":
		return PolicyNone, nil
	case "repair":
		return PolicyRepair, nil
	case "autoscale":
		return PolicyAutoscale, nil
	case "autoscale+migrate", "migrate":
		return PolicyAutoscaleMigrate, nil
	default:
		return 0, fmt.Errorf("control: unknown policy %q (want none|repair|autoscale|autoscale+migrate)", s)
	}
}

// Config parameterizes a Controller.
type Config struct {
	// Problem, Placement and Schedule describe the deployment being
	// simulated — the same values passed to simulate.Config.
	Problem   *model.Problem
	Placement *model.Placement
	Schedule  *model.Schedule

	// Policy selects the active mechanisms; the zero value is PolicyNone.
	Policy Policy

	// ScaleUpUtil is the mean window utilization above which a VNF gains a
	// replica (default 0.85); ScaleDownUtil the level below which it may
	// retire one (default 0.30). Hysteresis lives in the gap.
	ScaleUpUtil   float64
	ScaleDownUtil float64

	// TargetUtil is the per-VNF utilization ceiling the shedding valve
	// defends: admissions are shed so residual demand ≤ TargetUtil × active
	// capacity (default 0.95).
	TargetUtil float64

	// SetupCost is the boot delay (seconds) a new replica pays before
	// serving; zero defaults to repair.SetupCostVM (pass
	// repair.SetupCostClickOS for the paper's lightweight alternative).
	SetupCost float64

	// MigrationCost is the freeze+transfer delay (seconds) a migrating
	// instance pays before resuming on its destination; zero defaults to
	// SetupCost.
	MigrationCost float64

	// Partitioner rebalances requests across instance sets; nil defaults to
	// RCKK, the paper's scheduler.
	Partitioner scheduling.Partitioner

	// Seed makes placement draws deterministic.
	Seed uint64
}

// Stats counts the controller's activity over one run.
type Stats struct {
	// Ticks counts controller ticks observed.
	Ticks int
	// ScaleUps and ScaleDowns count autoscaling actions; SetupSecs is the
	// total boot time paid by scale-ups.
	ScaleUps   int
	ScaleDowns int
	SetupSecs  float64
	// Migrations counts tick-driven moves (off failed or hot nodes);
	// Evacuations counts preemption-notice moves ahead of a loss.
	// MigrationSecs is the total freeze+transfer time paid.
	Migrations    int
	Evacuations   int
	MigrationSecs float64
	// NodeSeconds integrates the number of nodes hosting at least one live
	// instance over the run — the cost axis of the cost-vs-SLO frontier.
	NodeSeconds float64
	// Repair is the embedded repair controller's own activity (node
	// transitions, reschedules, replacements).
	Repair repair.Stats
}

// Controller is the pool manager: one value implements simulate.FaultHook
// (node transitions), simulate.ControlHook (periodic ticks) and
// simulate.PreemptionNoticeHook (ahead-of-loss evacuation), all sharing the
// embedded repair controller as the single placement/inventory authority.
// Create one per deployment and Reset it between runs; it is not safe for
// concurrent use, matching the simulator's single-goroutine loop.
type Controller struct {
	cfg Config
	rep *repair.Controller

	stats    Stats
	lastCost float64

	// noticed marks nodes under an active preemption notice (cleared when
	// the node actually goes down), so placements avoid doomed hosts.
	noticed map[model.NodeID]bool

	// Tick scratch, reused across ticks.
	obs     []simulate.InstanceObs
	obsIdx  map[simulate.InstanceKey]int
	hosts   []repair.InstanceHost
	surv    []int
	nodeSet map[model.NodeID]struct{}
	nodeSum map[model.NodeID]float64
	nodeN   map[model.NodeID]int
}

// New validates cfg and builds a controller primed with the initial
// placement.
func New(cfg Config) (*Controller, error) {
	switch cfg.Policy {
	case PolicyNone, PolicyRepair, PolicyAutoscale, PolicyAutoscaleMigrate:
	default:
		return nil, fmt.Errorf("control: unknown policy %d", cfg.Policy)
	}
	if cfg.ScaleUpUtil == 0 {
		cfg.ScaleUpUtil = 0.85
	}
	if cfg.ScaleDownUtil == 0 {
		cfg.ScaleDownUtil = 0.30
	}
	if cfg.TargetUtil == 0 {
		cfg.TargetUtil = 0.95
	}
	if !(cfg.ScaleDownUtil > 0 && cfg.ScaleDownUtil < cfg.ScaleUpUtil && cfg.ScaleUpUtil < 1) {
		return nil, fmt.Errorf("control: need 0 < ScaleDownUtil (%v) < ScaleUpUtil (%v) < 1",
			cfg.ScaleDownUtil, cfg.ScaleUpUtil)
	}
	if !(cfg.TargetUtil > 0 && cfg.TargetUtil <= 1) {
		return nil, fmt.Errorf("control: TargetUtil %v outside (0,1]", cfg.TargetUtil)
	}
	if cfg.MigrationCost < 0 || math.IsNaN(cfg.MigrationCost) || math.IsInf(cfg.MigrationCost, 0) {
		return nil, fmt.Errorf("control: invalid migration cost %v", cfg.MigrationCost)
	}
	rep, err := repair.New(repair.Config{
		Problem:     cfg.Problem,
		Placement:   cfg.Placement,
		Schedule:    cfg.Schedule,
		Mode:        repair.ModeRescheduleReplace,
		Partitioner: cfg.Partitioner,
		SetupCost:   cfg.SetupCost,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	if cfg.SetupCost == 0 {
		cfg.SetupCost = rep.SetupCost()
	}
	if cfg.MigrationCost == 0 {
		cfg.MigrationCost = cfg.SetupCost
	}
	return &Controller{
		cfg:     cfg,
		rep:     rep,
		noticed: make(map[model.NodeID]bool),
		obsIdx:  make(map[simulate.InstanceKey]int),
		nodeSet: make(map[model.NodeID]struct{}),
		nodeSum: make(map[model.NodeID]float64),
		nodeN:   make(map[model.NodeID]int),
	}, nil
}

// Reset re-primes the controller to its initial-placement state with a new
// seed, retaining every map and scratch buffer — equivalent to New with the
// same Config and the given seed, so sweeps reuse one controller across
// runs.
func (c *Controller) Reset(seed uint64) {
	c.cfg.Seed = seed
	c.rep.Reset(seed)
	c.stats = Stats{}
	c.lastCost = 0
	clear(c.noticed)
}

// Stats returns the controller's accumulated activity. NodeSeconds is
// integrated up to the last observed event; use StatsAt to fold it to the
// horizon after a run.
func (c *Controller) Stats() Stats {
	st := c.stats
	st.Repair = c.rep.Stats()
	return st
}

// StatsAt folds the nodes-in-service cost integral up to now (typically the
// horizon, after the run ends) and returns the stats.
func (c *Controller) StatsAt(now float64) Stats {
	c.foldCost(now)
	return c.Stats()
}

// foldCost integrates nodes-in-service over [lastCost, now). Called before
// every inventory change so each interval is charged at the count that held
// throughout it.
func (c *Controller) foldCost(now float64) {
	if now > c.lastCost {
		c.stats.NodeSeconds += float64(c.nodesInService()) * (now - c.lastCost)
		c.lastCost = now
	}
}

// nodesInService counts distinct nodes hosting at least one live instance.
func (c *Controller) nodesInService() int {
	clear(c.nodeSet)
	hosts := c.hosts[:0]
	for _, f := range c.cfg.Problem.VNFs {
		hosts = c.rep.InstancesOf(f.ID, hosts[:0])
		for _, h := range hosts {
			c.nodeSet[h.Node] = struct{}{}
		}
	}
	c.hosts = hosts
	return len(c.nodeSet)
}

// NodeDown implements simulate.FaultHook: under PolicyRepair and above the
// embedded repair controller reschedules and replaces exactly as
// internal/repair would.
func (c *Controller) NodeDown(now float64, node model.NodeID, ctrl *simulate.RepairControl) {
	c.foldCost(now)
	delete(c.noticed, node) // the announced loss has landed
	if c.cfg.Policy >= PolicyRepair {
		c.rep.NodeDown(now, node, ctrl)
	}
}

// NodeUp implements simulate.FaultHook.
func (c *Controller) NodeUp(now float64, node model.NodeID, ctrl *simulate.RepairControl) {
	c.foldCost(now)
	if c.cfg.Policy >= PolicyRepair {
		c.rep.NodeUp(now, node, ctrl)
	}
}

// PreemptionNotice implements simulate.PreemptionNoticeHook: under
// PolicyAutoscaleMigrate the controller evacuates every instance hosted on
// a doomed node to a surviving host ahead of the loss, paying the migration
// cost, and rebalances the affected VNFs onto their post-evacuation pools.
func (c *Controller) PreemptionNotice(now float64, nodes []model.NodeID, downAt float64, ctrl *simulate.RepairControl) {
	if c.cfg.Policy < PolicyAutoscaleMigrate {
		return
	}
	c.foldCost(now)
	for _, n := range nodes {
		c.noticed[n] = true
	}
	safe := func(n model.NodeID) bool { return ctrl.NodeIsUp(n) && !c.noticed[n] }
	resume := now + c.cfg.MigrationCost
	for _, f := range c.cfg.Problem.VNFs {
		c.hosts = c.rep.InstancesOf(f.ID, c.hosts[:0])
		moved := false
		for _, h := range c.hosts {
			if !c.noticed[h.Node] {
				continue
			}
			target, ok := c.rep.PickNode(f.ID, safe)
			if !ok {
				continue
			}
			if err := ctrl.MigrateInstance(f.ID, h.Instance, target, resume); err != nil {
				continue
			}
			c.rep.MoveInstance(f.ID, h.Instance, target)
			c.stats.Evacuations++
			c.stats.MigrationSecs += c.cfg.MigrationCost
			moved = true
		}
		if moved {
			c.surv = append(c.surv[:0], c.rep.Survivors(f.ID, safe)...)
			c.rep.Rebalance(f.ID, c.surv, ctrl)
		}
	}
}

// Tick implements simulate.ControlHook: observe the window, autoscale each
// VNF, migrate under PolicyAutoscaleMigrate, and set the admission-shedding
// valve from the residual capacity shortfall.
func (c *Controller) Tick(now float64, cp *simulate.ControlPlane) {
	c.stats.Ticks++
	c.foldCost(now)
	if c.cfg.Policy < PolicyAutoscale {
		return
	}
	c.obs = cp.Instances(c.obs[:0])
	clear(c.obsIdx)
	for i := range c.obs {
		c.obsIdx[c.obs[i].Key] = i
	}
	rc := &cp.RepairControl

	// coverage is the worst-case fraction of offered load the active pools
	// can absorb at TargetUtil; anything beyond it gets shed.
	coverage := 1.0
	for _, f := range c.cfg.Problem.VNFs {
		c.hosts = c.rep.InstancesOf(f.ID, c.hosts[:0])
		if len(c.hosts) == 0 {
			continue
		}
		demand := c.rep.OfferedLoad(f.ID)
		var utilSum, capacity float64
		active := 0
		victim, victimSeen := -1, false
		for _, h := range c.hosts {
			oi, ok := c.obsIdx[simulate.InstanceKey{VNF: f.ID, Instance: h.Instance}]
			if !ok || c.obs[oi].Down {
				continue
			}
			active++
			capacity += f.ServiceRate
			utilSum += c.obs[oi].Utilization
			if !victimSeen || h.Instance > victim {
				victim, victimSeen = h.Instance, true
			}
		}
		if demand > 0 {
			cov := 0.0
			if capacity > 0 {
				cov = math.Min(1, c.cfg.TargetUtil*capacity/demand)
			}
			coverage = math.Min(coverage, cov)
		}
		if active == 0 {
			// Every instance is down (the repair hook replaces capacity on
			// failures it observes, but a fully preempted pool may still be
			// empty): try to boot a replica on any up node.
			c.scaleUp(f.ID, now, cp, rc, cp.NodeIsUp)
			continue
		}
		mean := utilSum / float64(active)
		switch {
		case mean > c.cfg.ScaleUpUtil:
			c.scaleUp(f.ID, now, cp, rc, cp.NodeIsUp)
		case mean < c.cfg.ScaleDownUtil && active > 1 &&
			demand <= c.cfg.TargetUtil*(capacity-f.ServiceRate):
			c.scaleDown(f.ID, victim, rc)
		}
	}
	if c.cfg.Policy >= PolicyAutoscaleMigrate {
		c.migrateTick(now, cp, rc)
	}
	shed := 1 - coverage
	if shed < 0 {
		shed = 0
	}
	_ = rc.SetShedFraction(shed)
}

// scaleUp boots one replica of f on a node the predicate accepts and
// rebalances f's requests across the enlarged pool.
func (c *Controller) scaleUp(f model.VNFID, now float64, cp *simulate.ControlPlane, rc *simulate.RepairControl, keep func(model.NodeID) bool) {
	node, ok := c.rep.PickNode(f, keep)
	if !ok {
		return
	}
	k, err := rc.AddInstance(f, node, now+c.cfg.SetupCost)
	if err != nil {
		return
	}
	c.rep.RecordInstance(f, k, node)
	c.surv = append(c.surv[:0], c.rep.Survivors(f, cp.NodeIsUp)...)
	c.rep.Rebalance(f, c.surv, rc)
	c.stats.ScaleUps++
	c.stats.SetupSecs += c.cfg.SetupCost
}

// scaleDown drains instance victim of f: requests are rebalanced onto the
// rest of the pool first, then the instance retires (finishing any residual
// work) and leaves the inventory.
func (c *Controller) scaleDown(f model.VNFID, victim int, rc *simulate.RepairControl) {
	c.surv = c.surv[:0]
	for _, k := range c.rep.Survivors(f, rc.NodeIsUp) {
		if k != victim {
			c.surv = append(c.surv, k)
		}
	}
	if len(c.surv) == 0 {
		return
	}
	c.rep.Rebalance(f, c.surv, rc)
	if err := rc.RemoveInstance(f, victim); err != nil {
		return
	}
	c.rep.ForgetInstance(f, victim)
	c.stats.ScaleDowns++
}

// migrateTick moves instances stranded on down nodes back into service on
// surviving hosts (rather than waiting out the recovery), paying the
// migration cost, and rebalances the affected VNFs.
func (c *Controller) migrateTick(now float64, cp *simulate.ControlPlane, rc *simulate.RepairControl) {
	safe := func(n model.NodeID) bool { return cp.NodeIsUp(n) && !c.noticed[n] }
	resume := now + c.cfg.MigrationCost
	for _, f := range c.cfg.Problem.VNFs {
		c.hosts = c.rep.InstancesOf(f.ID, c.hosts[:0])
		moved := false
		for _, h := range c.hosts {
			if cp.NodeIsUp(h.Node) {
				continue
			}
			target, ok := c.rep.PickNode(f.ID, safe)
			if !ok {
				continue
			}
			if err := rc.MigrateInstance(f.ID, h.Instance, target, resume); err != nil {
				continue
			}
			c.rep.MoveInstance(f.ID, h.Instance, target)
			c.stats.Migrations++
			c.stats.MigrationSecs += c.cfg.MigrationCost
			moved = true
		}
		if moved {
			c.surv = append(c.surv[:0], c.rep.Survivors(f.ID, cp.NodeIsUp)...)
			c.rep.Rebalance(f.ID, c.surv, rc)
		}
	}
	c.hotNodeTick(now, cp, rc)
}

// hotNodeTick relieves the hottest node: when one node's instances run
// collectively above ScaleUpUtil while it hosts at least two of them, its
// least-utilized instance migrates to a host picked over the remaining
// nodes' residual capacities. One move per tick bounds churn; ties resolve
// in problem node order and instance-table order, keeping the decision
// deterministic.
func (c *Controller) hotNodeTick(now float64, cp *simulate.ControlPlane, rc *simulate.RepairControl) {
	clear(c.nodeSum)
	clear(c.nodeN)
	for i := range c.obs {
		o := &c.obs[i]
		if o.Down || o.Retired || o.Node == "" {
			continue
		}
		c.nodeSum[o.Node] += o.Utilization
		c.nodeN[o.Node]++
	}
	var hot model.NodeID
	hotMean := c.cfg.ScaleUpUtil
	for _, n := range c.cfg.Problem.Nodes {
		cnt := c.nodeN[n.ID]
		if cnt < 2 {
			continue
		}
		if mean := c.nodeSum[n.ID] / float64(cnt); mean > hotMean {
			hot, hotMean = n.ID, mean
		}
	}
	if hot == "" {
		return
	}
	best := -1
	for i := range c.obs {
		o := &c.obs[i]
		if o.Node != hot || o.Down || o.Retired || o.Booting {
			continue
		}
		if best < 0 || o.Utilization < c.obs[best].Utilization {
			best = i
		}
	}
	if best < 0 {
		return
	}
	key := c.obs[best].Key
	safe := func(n model.NodeID) bool { return cp.NodeIsUp(n) && !c.noticed[n] && n != hot }
	target, ok := c.rep.PickNode(key.VNF, safe)
	if !ok {
		return
	}
	if err := rc.MigrateInstance(key.VNF, key.Instance, target, now+c.cfg.MigrationCost); err != nil {
		return
	}
	c.rep.MoveInstance(key.VNF, key.Instance, target)
	c.stats.Migrations++
	c.stats.MigrationSecs += c.cfg.MigrationCost
	c.surv = append(c.surv[:0], c.rep.Survivors(key.VNF, cp.NodeIsUp)...)
	c.rep.Rebalance(key.VNF, c.surv, rc)
}

// Interface conformance.
var (
	_ simulate.FaultHook            = (*Controller)(nil)
	_ simulate.ControlHook          = (*Controller)(nil)
	_ simulate.PreemptionNoticeHook = (*Controller)(nil)
)
