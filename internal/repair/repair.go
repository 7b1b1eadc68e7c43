// Package repair implements self-healing controllers for the fault-injected
// simulator (simulate.FaultPlan): a Controller subscribes to node up/down
// transitions as a simulate.FaultHook and repairs the running deployment at
// the simulated time they occur.
//
// Two recovery mechanisms compose, mirroring the paper's own algorithms:
//
//   - Rescheduling (Section IV-B): when a VNF still has live instances, the
//     requests of its failed instances are rebalanced across the survivors
//     by re-running the request scheduler (RCKK by default) over the
//     surviving instance set — the same load-balancing objective as the
//     original schedule, restricted to what is still up.
//
//   - Re-placement (Section IV-A): when a VNF loses every instance — the
//     common case here, since the paper's placement model hosts all M_f
//     instances of a VNF on one node — replacement instances are placed
//     onto surviving nodes by BFDSU (Algorithm 1) over their residual
//     capacities, one replica at a time, each replica regarded as a new VNF
//     as Section IV-A suggests. Each replacement pays the paper's cited
//     setup cost (SetupCostVM ≈ 5 s for a middlebox VM, SetupCostClickOS ≈
//     30 ms) before it may serve.
//
// On node recovery the controller rebalances affected VNFs again so the
// returned capacity is re-integrated. All decisions are deterministic given
// Config.Seed: affected VNFs are processed in sorted order and the placement
// draws derive from a per-decision seed, so equal seeds replay equal repairs.
package repair

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
)

// Setup costs cited by the paper (seconds): the delay before a newly booted
// instance may serve.
const (
	SetupCostVM      = 5.0   // booting a Linux VM per middlebox
	SetupCostClickOS = 0.030 // ClickOS-style lightweight instantiation
)

// Mode selects how much of the repair machinery is active.
type Mode int

// Supported repair modes.
const (
	// ModeNone disables repair: failures run their course and the run
	// measures unmitigated availability (the experiment baseline).
	ModeNone Mode = iota
	// ModeReschedule rebalances requests across a VNF's surviving instances
	// but never adds capacity. With the paper's one-node-per-VNF placement
	// a node failure leaves no survivors, so this mode only helps once
	// earlier replacements have spread a VNF across nodes.
	ModeReschedule
	// ModeRescheduleReplace additionally re-places lost capacity: a VNF
	// with no surviving instance gets replacements booted on surviving
	// nodes via BFDSU, each paying Config.SetupCost before serving.
	ModeRescheduleReplace
)

// String returns the flag spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeReschedule:
		return "reschedule"
	case ModeRescheduleReplace:
		return "replace"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a -repair flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "none":
		return ModeNone, nil
	case "reschedule":
		return ModeReschedule, nil
	case "replace", "reschedule+replace":
		return ModeRescheduleReplace, nil
	default:
		return 0, fmt.Errorf("repair: unknown mode %q (want none|reschedule|replace)", s)
	}
}

// Config parameterizes a Controller.
type Config struct {
	// Problem, Placement and Schedule describe the deployment being
	// simulated — the same values passed to simulate.Config.
	Problem   *model.Problem
	Placement *model.Placement
	Schedule  *model.Schedule

	// Mode selects the repair mechanisms; the zero value is ModeNone.
	Mode Mode

	// Partitioner rebalances requests across surviving instances; nil
	// defaults to RCKK, the paper's scheduler.
	Partitioner scheduling.Partitioner

	// SetupCost is the boot delay (seconds) a replacement instance pays
	// before serving; zero defaults to SetupCostVM.
	SetupCost float64

	// Seed makes replacement draws deterministic.
	Seed uint64
}

// Stats counts the controller's repair activity over one run.
type Stats struct {
	// NodeFailures and NodeRecoveries count the transitions observed.
	NodeFailures   int
	NodeRecoveries int
	// Reschedules counts VNF rebalances (both after failures and after
	// recoveries).
	Reschedules int
	// Replacements counts instances booted on surviving nodes;
	// ReplacementsFailed counts replicas that fit on no surviving node.
	Replacements       int
	ReplacementsFailed int
	// SetupSecs is the total boot time paid by replacements.
	SetupSecs float64
}

// Controller is a simulate.FaultHook that repairs the deployment mid-run.
// Create one per simulation run (it accumulates per-run state); it is not
// safe for concurrent use, matching the simulator's single-goroutine loop.
type Controller struct {
	cfg  Config
	part scheduling.Partitioner

	// instances[f][k] = node hosting instance k of f, covering the base
	// instances (all on the placed node) plus repair-time replacements.
	instances map[model.VNFID]map[int]model.NodeID
	// usage / usageExtras track committed demand per node so replacement
	// placement sees true residual capacities.
	usage       map[model.NodeID]float64
	usageExtras map[model.NodeID][]float64
	// reqsOf[f] lists the scheduled requests using f, in problem order, for
	// deterministic rebalancing.
	reqsOf map[model.VNFID][]model.Request

	stats Stats
	seq   uint64 // per-decision counter feeding replacement seeds

	// Rebalance/replacement scratch, reused across node transitions so the
	// repair hot path stops rebuilding slices per outage event. reuse is
	// non-nil when the partitioner supports scratch-backed calls (RCKK does).
	reuse      scheduling.ReusePartitioner
	partScr    scheduling.PartitionScratch
	items      []scheduling.Item
	affected   []model.VNFID
	surv       []int
	subProblem model.Problem
	subVNFs    [1]model.VNF
	extrasBuf  []float64
}

// New validates cfg and builds a controller primed with the initial
// placement's instance map and node usage.
func New(cfg Config) (*Controller, error) {
	if cfg.Problem == nil || cfg.Placement == nil || cfg.Schedule == nil {
		return nil, errors.New("repair: Problem, Placement and Schedule are required")
	}
	if cfg.SetupCost < 0 || math.IsNaN(cfg.SetupCost) || math.IsInf(cfg.SetupCost, 0) {
		return nil, fmt.Errorf("repair: invalid setup cost %v", cfg.SetupCost)
	}
	if cfg.SetupCost == 0 {
		cfg.SetupCost = SetupCostVM
	}
	if err := cfg.Placement.Validate(cfg.Problem); err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	cfg.Schedule = cfg.Schedule.For(cfg.Problem)
	if err := cfg.Schedule.ValidatePartial(cfg.Problem); err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	c := &Controller{
		cfg:         cfg,
		part:        cfg.Partitioner,
		instances:   make(map[model.VNFID]map[int]model.NodeID),
		usage:       make(map[model.NodeID]float64),
		usageExtras: make(map[model.NodeID][]float64),
		reqsOf:      make(map[model.VNFID][]model.Request),
	}
	if c.part == nil {
		c.part = scheduling.RCKK{}
	}
	c.reuse, _ = c.part.(scheduling.ReusePartitioner)
	c.prime()
	return c, nil
}

// prime loads the initial placement into the instance map, node usage and
// per-VNF request lists. Called on construction and again from Reset.
func (c *Controller) prime() {
	for _, f := range c.cfg.Problem.VNFs {
		node, ok := c.cfg.Placement.Node(f.ID)
		if !ok {
			continue
		}
		hosts := c.instances[f.ID]
		if hosts == nil {
			hosts = make(map[int]model.NodeID, f.Instances)
		}
		for k := 0; k < f.Instances; k++ {
			hosts[k] = node
		}
		c.instances[f.ID] = hosts
		c.usage[node] += f.TotalDemand()
		for d, e := range f.TotalExtras() {
			c.extrasOf(node)[d] += e
		}
	}
	sched := c.cfg.Schedule
	for ri, r := range c.cfg.Problem.Requests {
		if !sched.Assigned(ri) {
			continue // rejected by admission control: generates no traffic
		}
		for _, f := range r.Chain {
			c.reqsOf[f] = append(c.reqsOf[f], r)
		}
	}
}

// Reset re-primes the controller to its initial-placement state with a new
// replacement-draw seed, retaining every map and scratch buffer, so sweeps
// and benchmarks reuse one controller across simulation runs instead of
// rebuilding it per run. Equivalent to New with the same Config and Seed.
func (c *Controller) Reset(seed uint64) {
	c.cfg.Seed = seed
	c.stats = Stats{}
	c.seq = 0
	for _, hosts := range c.instances {
		clear(hosts)
	}
	clear(c.usage)
	for _, e := range c.usageExtras {
		clear(e)
	}
	for f := range c.reqsOf {
		c.reqsOf[f] = c.reqsOf[f][:0]
	}
	c.prime()
}

// extrasOf returns node's extras-usage vector, allocating it on first use.
func (c *Controller) extrasOf(n model.NodeID) []float64 {
	e, ok := c.usageExtras[n]
	if !ok && c.cfg.Problem.ExtraResources() > 0 {
		e = make([]float64, c.cfg.Problem.ExtraResources())
		c.usageExtras[n] = e
	}
	return e
}

// Stats returns the controller's accumulated repair activity.
func (c *Controller) Stats() Stats { return c.stats }

// SetupCost returns the effective boot cost replacements pay (after the
// zero-value default is applied by New).
func (c *Controller) SetupCost() float64 { return c.cfg.SetupCost }

// NodeDown implements simulate.FaultHook: rebalance each affected VNF over
// its surviving instances, first booting replacements when none survive.
func (c *Controller) NodeDown(now float64, node model.NodeID, ctrl *simulate.RepairControl) {
	c.stats.NodeFailures++
	if c.cfg.Mode == ModeNone {
		return
	}
	for _, f := range c.affectedVNFs(node) {
		survivors := c.survivors(f, ctrl)
		if len(survivors) == 0 && c.cfg.Mode == ModeRescheduleReplace {
			c.replace(f, len(c.instances[f]), now, ctrl)
			survivors = c.survivors(f, ctrl)
		}
		if len(survivors) > 0 {
			c.rebalance(f, survivors, ctrl)
		}
	}
}

// NodeUp implements simulate.FaultHook: rebalance each VNF hosted on the
// recovered node so its returned capacity is used again.
func (c *Controller) NodeUp(now float64, node model.NodeID, ctrl *simulate.RepairControl) {
	c.stats.NodeRecoveries++
	if c.cfg.Mode == ModeNone {
		return
	}
	for _, f := range c.affectedVNFs(node) {
		if survivors := c.survivors(f, ctrl); len(survivors) > 0 {
			c.rebalance(f, survivors, ctrl)
		}
	}
}

// affectedVNFs returns the VNFs with at least one instance on node, sorted
// for deterministic processing order. The returned slice is scratch, valid
// until the next call.
func (c *Controller) affectedVNFs(node model.NodeID) []model.VNFID {
	out := c.affected[:0]
	for f, hosts := range c.instances {
		for _, n := range hosts {
			if n == node {
				out = append(out, f)
				break
			}
		}
	}
	slices.Sort(out)
	c.affected = out
	return out
}

// survivors returns the instance indices of f hosted on up nodes, ascending.
// The returned slice is scratch, valid until the next call.
func (c *Controller) survivors(f model.VNFID, ctrl *simulate.RepairControl) []int {
	return c.Survivors(f, ctrl.NodeIsUp)
}

// Survivors returns the instance indices of f hosted on nodes the predicate
// accepts, ascending. The returned slice is scratch, valid until the next
// Survivors call — pool-manager controllers (internal/control) use it with
// richer predicates than node-is-up (e.g. excluding preemption-noticed
// nodes). The scratch is shared with the internal repair paths.
func (c *Controller) Survivors(f model.VNFID, keep func(model.NodeID) bool) []int {
	out := c.surv[:0]
	for k, n := range c.instances[f] {
		if keep(n) {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	c.surv = out
	return out
}

// InstanceHost is one (instance index, hosting node) entry of a VNF's
// inventory.
type InstanceHost struct {
	Instance int
	Node     model.NodeID
}

// InstancesOf appends f's current inventory — base instances plus every
// repair- or control-time addition not yet forgotten — to buf, sorted by
// instance index, and returns it.
func (c *Controller) InstancesOf(f model.VNFID, buf []InstanceHost) []InstanceHost {
	start := len(buf)
	for k, n := range c.instances[f] {
		buf = append(buf, InstanceHost{Instance: k, Node: n})
	}
	slices.SortFunc(buf[start:], func(a, b InstanceHost) int { return a.Instance - b.Instance })
	return buf
}

// OfferedLoad returns the aggregate effective arrival rate of the scheduled
// requests that traverse f — the demand the VNF's instance pool must cover.
func (c *Controller) OfferedLoad(f model.VNFID) float64 {
	var load float64
	for _, r := range c.reqsOf[f] {
		load += r.EffectiveRate()
	}
	return load
}

// PickNode selects a host for one additional replica of f: BFDSU over the
// residual capacities of the nodes the predicate accepts, exactly the draw
// the replace path uses (each call advances the controller's decision
// counter, keeping picks deterministic for a given seed and call sequence).
// ok is false when no accepted node fits the replica.
func (c *Controller) PickNode(f model.VNFID, keep func(model.NodeID) bool) (model.NodeID, bool) {
	vnf, found := c.cfg.Problem.VNF(f)
	if !found {
		return "", false
	}
	c.seq++
	return c.placeReplica(vnf, keep)
}

// RecordInstance registers instance k of f as hosted on node in the
// controller's inventory, committing its demand against the node — the
// bookkeeping side of a simulate AddInstance performed by an external
// controller.
func (c *Controller) RecordInstance(f model.VNFID, k int, node model.NodeID) {
	vnf, ok := c.cfg.Problem.VNF(f)
	if !ok {
		return
	}
	hosts := c.instances[f]
	if hosts == nil {
		hosts = make(map[int]model.NodeID)
		c.instances[f] = hosts
	}
	if _, dup := hosts[k]; dup {
		return
	}
	hosts[k] = node
	c.usage[node] += vnf.Demand
	for d, e := range vnf.Extras {
		c.extrasOf(node)[d] += e
	}
}

// ForgetInstance removes instance k of f from the inventory, releasing its
// demand — the bookkeeping side of a scale-down retirement.
func (c *Controller) ForgetInstance(f model.VNFID, k int) {
	hosts := c.instances[f]
	node, ok := hosts[k]
	if !ok {
		return
	}
	delete(hosts, k)
	vnf, found := c.cfg.Problem.VNF(f)
	if !found {
		return
	}
	c.usage[node] -= vnf.Demand
	for d, e := range vnf.Extras {
		c.extrasOf(node)[d] -= e
	}
}

// MoveInstance rehosts instance k of f onto node in the inventory — the
// bookkeeping side of a simulate MigrateInstance.
func (c *Controller) MoveInstance(f model.VNFID, k int, node model.NodeID) {
	c.ForgetInstance(f, k)
	c.RecordInstance(f, k, node)
}

// Rebalance re-partitions f's scheduled requests across the given instance
// indices of f (all of which must be live in the simulation) and reroutes
// them — the exported form of the post-transition rebalancing the hook paths
// run, for external controllers reshaping the pool mid-run. No-op on an
// empty instance set.
func (c *Controller) Rebalance(f model.VNFID, instances []int, ctrl *simulate.RepairControl) {
	if len(instances) == 0 {
		return
	}
	c.rebalance(f, instances, ctrl)
}

// replace boots count replacement instances of f on surviving nodes, one
// BFDSU placement per replica over the nodes' residual capacities (the
// paper's replicas-as-new-VNFs scale-out). Replicas that fit
// nowhere are counted and skipped — partial recovery beats none.
func (c *Controller) replace(f model.VNFID, count int, now float64, ctrl *simulate.RepairControl) {
	vnf, ok := c.cfg.Problem.VNF(f)
	if !ok {
		return
	}
	for i := 0; i < count; i++ {
		c.seq++
		node, ok := c.placeReplica(vnf, ctrl.NodeIsUp)
		if !ok {
			c.stats.ReplacementsFailed++
			continue
		}
		k, err := ctrl.AddInstance(f, node, now+c.cfg.SetupCost)
		if err != nil {
			c.stats.ReplacementsFailed++
			continue
		}
		c.instances[f][k] = node
		c.usage[node] += vnf.Demand
		for d, e := range vnf.Extras {
			c.extrasOf(node)[d] += e
		}
		c.stats.Replacements++
		c.stats.SetupSecs += c.cfg.SetupCost
	}
}

// placeReplica runs BFDSU over the residual capacities of the nodes the
// predicate accepts for a single-instance replica of vnf and returns the
// chosen host. The candidate sub-problem is rebuilt into retained scratch
// (subProblem, extrasBuf), so repeated replacements only pay for the
// placement itself.
func (c *Controller) placeReplica(vnf model.VNF, keep func(model.NodeID) bool) (model.NodeID, bool) {
	dims := c.cfg.Problem.ExtraResources()
	sub := &c.subProblem
	sub.Nodes = sub.Nodes[:0]
	sub.VNFs = sub.VNFs[:0]
	if need := len(c.cfg.Problem.Nodes) * dims; cap(c.extrasBuf) < need {
		c.extrasBuf = make([]float64, 0, need)
	}
	c.extrasBuf = c.extrasBuf[:0]
	for _, n := range c.cfg.Problem.Nodes {
		if !keep(n.ID) {
			continue
		}
		residual := n.Capacity - c.usage[n.ID]
		if residual < vnf.Demand {
			continue
		}
		start := len(c.extrasBuf)
		used := c.usageExtras[n.ID]
		fits := true
		for d := 0; d < dims; d++ {
			e := n.Extras[d]
			if used != nil {
				e -= used[d]
			}
			if d < len(vnf.Extras) && e < vnf.Extras[d] {
				fits = false
			}
			c.extrasBuf = append(c.extrasBuf, e)
		}
		if !fits {
			c.extrasBuf = c.extrasBuf[:start]
			continue
		}
		extras := c.extrasBuf[start:len(c.extrasBuf):len(c.extrasBuf)]
		sub.Nodes = append(sub.Nodes, model.Node{ID: n.ID, Capacity: residual, Extras: extras})
	}
	if len(sub.Nodes) == 0 {
		return "", false
	}
	replica := vnf
	replica.ID = model.VNFID(fmt.Sprintf("%s#re%d", vnf.ID, c.seq))
	replica.Instances = 1
	c.subVNFs[0] = replica
	sub.VNFs = c.subVNFs[:1]
	alg := &placement.BFDSU{Seed: c.cfg.Seed ^ c.seq*0x9e3779b97f4a7c15}
	res, err := alg.Place(sub)
	if err != nil {
		return "", false
	}
	node, ok := res.Placement.Node(replica.ID)
	return node, ok
}

// rebalance re-partitions f's scheduled requests across the surviving
// instance set with the configured scheduler and reroutes them.
func (c *Controller) rebalance(f model.VNFID, survivors []int, ctrl *simulate.RepairControl) {
	reqs := c.reqsOf[f]
	if len(reqs) == 0 {
		return
	}
	c.items = c.items[:0]
	for _, r := range reqs {
		c.items = append(c.items, scheduling.Item{ID: r.ID, Weight: r.EffectiveRate()})
	}
	var assign []int
	var err error
	if c.reuse != nil {
		assign, err = c.reuse.PartitionReuse(c.items, len(survivors), &c.partScr)
	} else {
		assign, err = c.part.Partition(c.items, len(survivors))
	}
	if err != nil {
		return
	}
	for i, r := range reqs {
		// Reassign only fails on stale references, which the instance map
		// precludes; a failed reroute simply leaves the old route in place.
		_ = ctrl.Reassign(r.ID, f, survivors[assign[i]])
	}
	c.stats.Reschedules++
}
