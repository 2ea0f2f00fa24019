// Package resinfo implements DReAMSim's resource information manager
// (paper §III, information subsystem): it owns the node list and the
// configurations list, maintains the per-configuration idle lists and
// every node's config-task-pair list as nodes change state, and meters
// each search and housekeeping step into the run's counters exactly as
// the paper's SearchLength / TotalSimWorkLoad accounting does.
//
// The paper also moves every region between an idle and a busy list
// per configuration. Its one reader of a busy list, the
// suspend-or-discard check (AnyBusyNodeCouldFit), scans the SoA block
// here, so no busy list is kept. Each transition still charges the
// paper's list moves, as a constant: one step per link or unlink,
// since every resident region sits in exactly one of the paper's two
// lists.
package resinfo

import (
	"fmt"
	"sort"

	"dreamsim/internal/invariant"
	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/reslists"
)

// Manager is the resource information manager. All mutations of node
// state must flow through it so the idle lists, Eq. 4 area accounting,
// and the housekeeping counters stay consistent.
type Manager struct {
	nodes   []*model.Node
	configs []*model.Config
	byArea  []int32          // config numbers by (ReqArea, No), for FindClosestConfig
	idle    []*reslists.List // config No -> idle list
	c       *metrics.Counters

	// SoA scan block: the blocked dense arrays the placement scans
	// walk and the node census (see soa.go), kept in sync by reindex.
	soa *soaState

	// evict is FindAnyIdleNode's reusable victim buffer; the returned
	// slice is valid until the next placement search.
	evict []*model.Entry
	// crashed is CrashNode's reusable buffer of displaced tasks.
	crashed []*model.Task
	// entryFree pools the Entry structs of removed regions (evicted,
	// blanked or crashed) for reuse by Configure, so steady-state
	// reconfiguration cycles allocate nothing.
	entryFree []*model.Entry
}

// Option customises a Manager at construction time.
type Option func(*Manager)

// Deprecated: WithIntraParallel is a no-op; placement scans are sequential.
//
//lint:deadexport (a) benchsuite, a separate module, calls it
func WithIntraParallel(int) Option { return func(*Manager) {} }

// New builds a manager over the given resources. Configurations must
// be numbered by position (configs[i].No == i), as workload.GenConfigs
// numbers them; the counters receive all metering.
//
//lint:metering construction-time setup walks; the paper meters only the running scheduler
func New(nodes []*model.Node, configs []*model.Config, counters *metrics.Counters, opts ...Option) (*Manager, error) {
	m := &Manager{
		nodes:   nodes,
		configs: configs,
		idle:    make([]*reslists.List, len(configs)),
		c:       counters,
	}
	for _, opt := range opts {
		opt(m)
	}
	for i, cfg := range configs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if cfg.No != i {
			return nil, fmt.Errorf("resinfo: configuration %d is numbered %d, not by its position", i, cfg.No)
		}
		m.idle[i] = new(reslists.List)
	}
	// FindClosestConfig's index: the configuration numbers by ReqArea,
	// ties in list order (the sort is stable).
	areas, nos := make([]int64, len(configs)), make([]int32, 2*len(configs))
	for i, cfg := range configs {
		areas[i], nos[i] = cfg.ReqArea, int32(i)
	}
	m.byArea = nos[:len(configs):len(configs)]
	sortByKey(m.byArea, nos[len(configs):], areas)
	counters.TotalNodes = len(nodes)
	counters.TotalConfigs = len(configs)
	for i, n := range nodes {
		n.Slot = i
	}
	m.soa = newSoaState(nodes)
	return m, nil
}

// reindex reconciles the SoA scan block after node changed state.
// Maintenance charges no counters — the metered workload describes the
// simulated linear-search scheduler, not the host data structure.
func (m *Manager) reindex(node *model.Node) {
	// reindex is the shared tail of every state transition
	// (Configure, EvictIdle, BlankNode, StartTask, FinishTask), so it
	// is where the -tags invariants build re-checks Eq. 4 area bounds.
	if invariant.Enabled {
		invariant.Assertf(node.AvailableArea >= 0 && node.AvailableArea <= node.TotalArea,
			"resinfo: node %d available area %d outside [0, %d] after a state transition (Eq. 4)",
			node.No, node.AvailableArea, node.TotalArea)
		invariant.Assertf(!node.Down || len(node.Entries) == 0,
			"resinfo: down node %d still holds %d configurations", node.No, len(node.Entries))
	}
	m.soa.sync(node.Slot, node)
}

// Nodes returns the node list (callers must not mutate node state
// directly; use the Manager's transition methods).
func (m *Manager) Nodes() []*model.Node { return m.nodes }

// Census returns the node census as of the last state transition.
func (m *Manager) Census() Census { return m.soa.census }

// Configs returns the configurations list.
func (m *Manager) Configs() []*model.Config { return m.configs }

// Idle returns the idle list of configuration cfgNo.
// It panics for unknown configurations — those are scheduler bugs.
func (m *Manager) Idle(cfgNo int) *reslists.List {
	if cfgNo < 0 || cfgNo >= len(m.idle) {
		panic(fmt.Sprintf("resinfo: unknown config %d", cfgNo))
	}
	return m.idle[cfgNo]
}

// search charges n scheduler search steps (the paper's SL counter,
// Alg. 1; TotalSchedulerWorkload sums these with housekeeping).
func (m *Manager) search(n uint64) {
	m.c.SchedulerSearch += n
}

// housekeep charges n housekeeping steps.
func (m *Manager) housekeep(n uint64) {
	m.c.HousekeepingSteps += n
}

// ChargeSearch lets scheduling policies meter list walks they run
// themselves (placement variants iterate the idle lists directly).
func (m *Manager) ChargeSearch(n uint64) { m.search(n) }

// ChargeHousekeeping lets the core meter queue maintenance work.
func (m *Manager) ChargeHousekeeping(n uint64) { m.housekeep(n) }

// FindPreferredConfig searches the configurations list for cfgNo
// (paper method; metered as the linear search the paper describes —
// "currently a simple linear search is employed"). It returns nil
// when the preferred configuration does not exist. Configurations are
// numbered by position, so the answer is an index and the walk's
// charge is arithmetic: cfgNo+1 steps to reach it, or the whole list
// on a miss.
func (m *Manager) FindPreferredConfig(cfgNo int) *model.Config {
	cfg := m.ConfigByNo(cfgNo)
	if cfg == nil {
		m.search(uint64(len(m.configs)))
		return nil
	}
	m.search(uint64(cfgNo) + 1)
	return cfg
}

// FindClosestConfig searches for C_ClosestMatch: the configuration
// whose ReqArea is minimal among all configurations with ReqArea ≥
// neededArea (paper §IV-C), the first in list order on a tie. It
// returns nil when no configuration is large enough. The paper's walk
// visits the whole list, which is what it charges; the answer comes
// from a binary search of the configurations ordered by (ReqArea, No).
func (m *Manager) FindClosestConfig(neededArea model.Area) *model.Config {
	m.search(uint64(len(m.configs)))
	i := sort.Search(len(m.byArea), func(i int) bool { return m.configs[m.byArea[i]].ReqArea >= neededArea })
	if i == len(m.byArea) {
		return nil
	}
	return m.configs[m.byArea[i]]
}

// Configure sends the bitstream of cfg to node (paper SendBitstream):
// the new idle region is linked into cfg's idle list and the
// reconfiguration counters and Eq. 10 configuration time accumulate.
func (m *Manager) Configure(node *model.Node, cfg *model.Config) (*model.Entry, error) {
	var spare *model.Entry
	if n := len(m.entryFree) - 1; n >= 0 {
		spare = m.entryFree[n]
		m.entryFree[n] = nil
		m.entryFree = m.entryFree[:n]
	}
	e, err := node.SendBitstreamReusing(cfg, spare)
	if err != nil {
		if spare != nil {
			m.entryFree = append(m.entryFree, spare)
		}
		return nil, err
	}
	m.Idle(cfg.No).Add(e)
	m.housekeep(1)
	m.c.Reconfigurations++
	m.c.ConfigurationTime += cfg.ConfigTime
	m.reindex(node)
	return e, nil
}

// EvictIdle removes the given idle regions from their node
// (paper MakeNodePartiallyBlank) and unlinks them from the idle lists,
// one housekeeping step each.
func (m *Manager) EvictIdle(node *model.Node, victims []*model.Entry) error {
	if err := node.MakeNodePartiallyBlank(victims); err != nil {
		return err
	}
	m.housekeep(uint64(len(victims)))
	for _, v := range victims {
		m.Idle(v.Config.No).Remove(v)
		m.recycleEntry(v)
	}
	m.reindex(node)
	return nil
}

// recycleEntry zeroes an unlinked region's Entry and pools it for the
// next Configure. Callers must guarantee no live reference remains —
// evicted and blanked regions qualify because the node, the idle lists
// and the scheduler have all dropped them by the time they reach the
// pool.
func (m *Manager) recycleEntry(e *model.Entry) {
	*e = model.Entry{}
	m.entryFree = append(m.entryFree, e)
}

// BlankNode strips every configuration from node (paper
// MakeNodeBlank) and unlinks the idle regions from their lists. Each
// removed region is one housekeeping step: the paper unlinks it from
// its idle or busy list.
func (m *Manager) BlankNode(node *model.Node) error {
	removed, err := node.MakeNodeBlank()
	if err != nil {
		return err
	}
	m.housekeep(uint64(len(removed)))
	for _, v := range removed {
		m.Idle(v.Config.No).Remove(v)
		m.recycleEntry(v)
	}
	m.reindex(node)
	return nil
}

// CrashNode fails node: the fabric state dies with it, so every
// resident configuration is invalidated, its idle regions are unlinked
// from the idle lists and pooled like evicted ones, and the tasks it
// was running are detached and returned for the caller's retry path.
// The returned slice is the manager's reusable buffer, valid until the
// next CrashNode. The node is excluded from every placement search
// until RecoverNode. Removing the dead regions is list maintenance
// like any eviction, so it charges one housekeeping step per region.
// Every decision is applied in the call that made it, so no stale
// decision can name a pooled region.
func (m *Manager) CrashNode(node *model.Node) ([]*model.Task, error) {
	tasks, removed, err := node.Fail(m.crashed[:0])
	if err != nil {
		return nil, err
	}
	m.crashed = tasks
	m.housekeep(uint64(len(removed)))
	for _, v := range removed {
		m.Idle(v.Config.No).Remove(v)
		m.recycleEntry(v)
	}
	m.reindex(node)
	return tasks, nil
}

// RecoverNode returns a crashed node to service, blank. Relinking the
// node into the searchable population is one housekeeping step.
func (m *Manager) RecoverNode(node *model.Node) error {
	if err := node.Restore(); err != nil {
		return err
	}
	m.housekeep(1)
	m.reindex(node)
	return nil
}

// StartTask places task on the idle region e (paper AddTaskToNode)
// and unlinks the region from its idle list. It charges the paper's
// move to the busy list: two housekeeping steps, an unlink and a link.
func (m *Manager) StartTask(e *model.Entry, task *model.Task) error {
	if err := e.Node.AddTaskToNode(e, task); err != nil {
		return err
	}
	m.Idle(e.Config.No).Remove(e)
	m.housekeep(2)
	m.reindex(e.Node)
	return nil
}

// FinishTask detaches task from node (paper RemoveTaskFromNode); the
// region stays configured and returns to its idle list. Like
// StartTask, it charges the paper's two-step list move.
func (m *Manager) FinishTask(node *model.Node, task *model.Task) (*model.Entry, error) {
	e, err := node.RemoveTaskFromNode(task)
	if err != nil {
		return nil, err
	}
	m.Idle(e.Config.No).Add(e)
	m.housekeep(2)
	m.reindex(node)
	return e, nil
}

// BestBlankNode returns the blank, capability-compatible node with the
// minimum TotalArea that can hold cfg, the lower node number on a tie.
// The paper's walk visits every node, so the whole list is charged;
// the answer comes from the SoA block's blank index (scanBlank).
func (m *Manager) BestBlankNode(cfg *model.Config) *model.Node {
	m.search(uint64(len(m.nodes)))
	return m.scanBlank(cfg)
}

// BestPartiallyBlankNode scans for configured, capability-compatible
// nodes with enough unconfigured area left for cfg and returns the
// one with the minimum sufficient AvailableArea (partial
// configuration phase, §V). Only meaningful in partial mode;
// full-mode nodes never qualify because a configured full-mode node
// has its fabric committed.
func (m *Manager) BestPartiallyBlankNode(cfg *model.Config) *model.Node {
	m.search(uint64(len(m.nodes)))
	return m.scanBest(cfg)
}

// FindAnyIdleNode is Algorithm 1 of the paper: walk the node list,
// and for each node accumulate its AvailableArea plus the areas of
// its idle regions; the first node whose accumulated reclaimable area
// reaches reqArea is returned together with the idle regions to evict.
// Both the scheduler search length and the total simulator workload
// are charged one step per examined entry, as in the algorithm text,
// and one step per capability-incompatible node. The SoA block finds
// the node from the per-slot reclaimable areas, skipping blocks that
// cannot reach reqArea, and charges the nodes before it from the entry
// counts (alg1Steps); only the returned node's entries are walked.
// The victim slice is the manager's reusable scratch: it stays valid
// until the next placement search, which is exactly long enough for
// the scheduler to consume the decision (sched.Apply evicts before
// anything else runs). Callers that retain it longer must copy.
func (m *Manager) FindAnyIdleNode(cfg *model.Config) (*model.Node, []*model.Entry) {
	hit := m.firstReclaimable(cfg)
	steps := m.alg1Steps(cfg.RequiredCaps, hit)
	if hit == len(m.nodes) {
		m.search(steps)
		return nil, nil
	}
	node := m.nodes[hit]
	accum := node.AvailableArea
	entries := m.evict[:0]
	for _, e := range node.Entries {
		steps++
		if e.Idle() {
			accum += e.Config.ReqArea
			entries = append(entries, e)
			if accum >= cfg.ReqArea {
				m.evict = entries
				m.search(steps)
				return node, entries
			}
		}
	}
	panic(fmt.Sprintf("resinfo: reclaimable area of node %d out of sync with its regions", node.No))
}

// AnyBusyNodeCouldFit reports whether some currently busy node has
// TotalArea ≥ reqArea — the paper's final check before suspending
// rather than discarding a task ("explores the list of all busy
// nodes to search at least one currently busy node with sufficient
// TotalArea").
func (m *Manager) AnyBusyNodeCouldFit(cfg *model.Config) bool {
	// The linear walk exits at the first match, so the charge is that
	// node's position (+1), or the whole list when no busy node fits.
	if pos := m.scanFirstFit(cfg, soaBusy); pos >= 0 {
		m.search(uint64(pos) + 1)
		return true
	}
	m.search(uint64(len(m.nodes)))
	return false
}

// AnyDownNodeCouldFit reports whether a currently-down node could
// host cfg once it recovers — the fault extension of the paper's
// suspend-or-discard check: a task that only lost its hosts to a
// transient outage should wait for recovery, not be discarded. The
// walk is deliberately uncharged: it is a fault-path liveness probe,
// not part of the paper's search model, so fault-free runs charge
// exactly the steps they always did.
func (m *Manager) AnyDownNodeCouldFit(cfg *model.Config) bool {
	return m.soa.census.Down > 0 && m.scanFirstFit(cfg, soaDown) >= 0
}

// CheckInvariants validates global consistency: every node passes its
// own checks, every idle region sits in its configuration's idle list,
// no busy region sits in any list, and list linkage is intact. Intended
// for tests and debug runs.
//
//lint:metering debug validator; its walks are host-side checking, not simulated scheduler work
func (m *Manager) CheckInvariants() error {
	listed := 0
	for no, l := range m.idle {
		if err := l.CheckInvariants(); err != nil {
			return err
		}
		var bad error
		l.Each(func(e *model.Entry) bool {
			listed++
			if e.Config.No != no {
				bad = fmt.Errorf("resinfo: entry %v in idle list of C%d", e, no)
				return false
			}
			if !e.Idle() {
				bad = fmt.Errorf("resinfo: busy entry %v in idle list", e)
				return false
			}
			return true
		})
		if bad != nil {
			return bad
		}
	}
	idle := 0
	for _, n := range m.nodes {
		if err := n.CheckInvariants(); err != nil {
			return err
		}
		if n.Down && n.AvailableArea != n.TotalArea {
			return fmt.Errorf("resinfo: down node %d has available %d != total %d",
				n.No, n.AvailableArea, n.TotalArea)
		}
		for _, e := range n.Entries {
			if e.Idle() != e.InIdle {
				return fmt.Errorf("resinfo: entry %v idle=%v but listed=%v", e, e.Idle(), e.InIdle)
			}
			if e.InIdle {
				idle++
			}
		}
	}
	if idle != listed {
		return fmt.Errorf("resinfo: %d idle regions resident but %d listed", idle, listed)
	}
	return m.soa.check(m.nodes)
}
