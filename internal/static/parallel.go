package static

// The sharded, work-stealing propagation engine. It computes the same least
// fixpoint as the sequential pop loop in solve(), with the same counter
// values for any worker count ≥ 1, by splitting each round of propagation
// into a pipeline of phases:
//
//   - a scan phase that is strictly read-only over solver state: the pending
//     frontier (everything queued since the last round) is partitioned into
//     shards keyed by union-find representative, cut into fixed-size chunks,
//     and scanned by the workers — each delivery's edge list is walked and
//     the destinations that would newly receive the token are recorded as
//     proposals, together with the frozen edge/self-edge counts the apply
//     pass needs for exact effort accounting. Chunks are distributed
//     round-robin over per-worker Chase-Lev deques; an idle worker steals
//     from the top of a victim's deque while owners pop from the bottom.
//
//   - a winnow phase (parallel, partitioned by destination shard): the
//     worker that owns a destination's shard walks the proposals in replay
//     order and inserts each token straight into the destination's set. The
//     first proposal of a (destination, token) pair finds the token absent
//     and wins; later ones find it present and are duplicates, which only
//     pre-filter lazy-cycle-detection pairs.
//
//   - a shard-owned apply pass (parallel, partitioned by variable shard):
//     each worker walks the frontier chunks of its shards in the fixed
//     barrier order and performs the source-side bookkeeping (liveness,
//     processed-prefix advance, effort accounting into per-worker
//     accumulators). A variable's shard is the same whether it acts as a
//     source or a destination, so all mutation of one varState in one phase
//     stays on one worker, in the same relative order the serial barrier
//     would have used. Cross-shard effects are not applied here: queue
//     scheduling, cycle evidence, and trigger firing are deferred to the
//     tail.
//
//   - a short serial tail on the solver goroutine that replays the epoch in
//     the fixed order (shards ascending, per-shard sequence order): winning
//     inserts are scheduled on the delivery queue, surviving cycle-evidence
//     pairs go through noteLCD, per-worker effort accumulators fold into the
//     solver counters (integer sums, so the split is invisible), and each
//     live delivery's triggers fire against the epoch-advanced state.
//     Trigger-added edges push their processed-prefix as next-epoch scan
//     tasks (pushTask); because every delivery of this epoch advanced
//     `delivered` in the apply pass before any trigger ran, the recorded
//     prefix bound already covers the whole epoch, which is what lets the
//     old per-delivery delta scan disappear from the serial path entirely.
//
// Batched Tarjan cycle sweeps run concurrently with the parallel phases: a
// sweep is launched between epochs (at the same deterministic points the
// sequential engine would run collapseAllSCCs) as a read-only traversal of
// the epoch-frozen edge/parent state on its own goroutine, rooted at the
// edges added since the previous sweep (see solver.sweepRoots), joined at
// the start of the serial tail (before triggers mutate edge lists), and its
// components are collapsed at the next between-epoch point — edges only get
// added in the interim, so a snapshot SCC is still an SCC when it lands,
// and the interim edges are the next sweep's roots.
//
// Exactness: the constraint system is monotone, so its least fixpoint is
// independent of delivery order — the same argument that makes the
// incremental baseline→extended resume exact. Determinism: proposal slots
// are keyed by (shard, sequence), which depends only on the epoch-start
// state, never on which worker scanned or applied a chunk or in what order;
// ownership splits (shard mod workers) change which goroutine performs an
// operation but not its position in the fixed replay order, and everything
// order-sensitive (queue scheduling, LCD notes, triggers) runs in the serial
// tail. Hence reports *and* effort counters are identical across worker
// counts, and identical between the concurrent path and the inline path
// used for small frontiers.
//
// Relative to the sequential engine, results (token sets, trigger firings,
// call graphs) are identical, but effort counters may differ slightly: the
// sequential loop can collapse a detected cycle before the very next pop,
// while the epoch engine collapses between epochs (and a concurrent sweep's
// components land one epoch after its launch), so on cycle-dense inputs some
// deliveries that the sequential engine short-circuits are still paid here
// (and vice versa). cmd/benchcheck bounds this divergence at workers=1
// rather than demanding equality, which would serialize the engine.
//
// A collapsed SCC never spans shards: sharding hashes the union-find
// representative, so every member of a unified group lands wherever its
// representative lands. All unification (LCD, sweep reconciliation) runs
// between epochs on the solver goroutine, exactly like the sequential
// engine runs it between pops.
//
// The exact no-unify mode (rollback windows, the reference engine) falls
// back to the sequential pop loop — see solve().

import (
	"sync"
	"sync/atomic"
	"time"
)

const (
	// shardBits fixes the shard count. 64 shards keep the partition pass
	// cheap while giving the work-stealing layer enough grain to balance:
	// the mega tier's frontiers spread over effectively all shards, and a
	// chunk never crosses a shard boundary.
	shardBits = 6
	nShards   = 1 << shardBits

	// epochChunk is the steal granularity: deliveries per chunk. Small
	// enough that one hot shard splits into many stealable pieces, large
	// enough that deque traffic stays a fraction of scan work.
	epochChunk = 64

	// cycleEpochCap bounds the deliveries consumed per epoch while lazy
	// cycle detection has pending evidence. The sequential engine collapses
	// a detected cycle before the very next pop; unbounded epochs would
	// defer that collapse past the whole frontier and pay every redundant
	// delivery in between. Shrinking epochs only while cycles are actively
	// being discovered keeps the effort counters within a small factor of
	// the sequential engine's without giving up scan width on the
	// cycle-quiet frontiers that dominate real projects. The policy reads
	// only solver state, which evolves identically at every worker count,
	// so determinism across worker counts is preserved.
	cycleEpochCap = 128
)

// inlineFrontierMax is the frontier size at or below which the epoch runs
// entirely on the solver goroutine (same scan/winnow/apply/tail algorithm,
// no goroutine handoff). Results and counters are identical on both paths;
// this only avoids paying synchronization on the small frontiers that
// dominate per-module solves of the 141-project corpus. A variable so
// tests can force the concurrent path under the race detector.
var inlineFrontierMax = 512

// asyncSweepMinFrontier is the pending-frontier size below which a batched
// Tarjan sweep runs synchronously instead of concurrently. A concurrent
// sweep's components land one epoch after its launch, so the launch epoch
// pays redundant deliveries a synchronous collapse would have avoided;
// with a large frontier that cost is dwarfed by the sweep compute hidden
// behind the parallel phases, but on a small frontier there is nothing to
// overlap with and the deferral is pure loss. The gate reads only
// deterministic solver state (queue depth at a between-epoch point), so
// AsyncSweeps stays identical at every worker count. A variable so tests
// can force the concurrent path under the race detector.
var asyncSweepMinFrontier = 1024

// ParallelSolveStats describes one solver's epoch-engine activity.
// Epochs, CrossShard, AsyncSweeps, and ShardDelivered are deterministic
// (identical for every worker count); Steals and the phase times depend on
// scheduling and are diagnostics only.
type ParallelSolveStats struct {
	// Epochs is the number of pipeline rounds run.
	Epochs int64
	// Steals counts chunks an idle worker took from another worker's deque.
	Steals int64
	// CrossShard counts winning proposals whose destination variable lives
	// in a different shard than the delivery that produced them — the
	// cross-shard edge traffic the steal deques exist to balance.
	CrossShard int64
	// AsyncSweeps counts batched Tarjan sweeps launched concurrently with
	// the parallel phases. The launch policy reads only deterministic solver
	// state, so the count is identical at every worker count.
	AsyncSweeps int64
	// ScanNS covers the read-only scan and the winnow, which performs the
	// winning inserts; ApplyNS the parallel shard-owned apply pass (source
	// bookkeeping); TailNS the serial tail
	// (sweep join wait, log replay, trigger firing). SweepOverlapNS is the
	// portion of concurrent-sweep compute time hidden behind the parallel
	// phases rather than paid as tail join wait.
	ScanNS         int64
	ApplyNS        int64
	TailNS         int64
	SweepOverlapNS int64
}

// shardOfRep maps a representative variable to its shard. Fibonacci
// hashing spreads consecutive variable ids (which are allocated in program
// order, so neighbors are usually related) across shards.
func shardOfRep(v Var) int32 {
	return int32((uint32(v) * 0x9E3779B9) >> (32 - shardBits))
}

// findRO resolves v's representative without path compression. The scan and
// apply phases run it concurrently from many workers, and partition uses it
// while a concurrent sweep holds a read-only view of the parent forest; the
// forest is never written during any of those windows (all unification
// happens between epochs, after sweep join), so the walk is race-free.
func (s *solver) findRO(v Var) Var {
	for s.parent[v] != v {
		v = s.parent[v]
	}
	return v
}

// pushTask is a deferred addEdge prefix push: deliver from's first lim
// processed tokens across the new from→to edge. Tasks are recorded when a
// tail-time trigger adds an edge (the sequential engine pushes inline at
// that point) and executed as scan work in the next epoch, which moves the
// membership checks — the dominant cost on dispatch-dense graphs, where
// most flow happens through call-resolution edges discovered mid-solve —
// onto the workers. Because the tail runs after every delivery of its epoch
// advanced `delivered`, lim covers the whole epoch, including tokens the
// old serial barrier could only reach with a per-delivery delta scan.
//
// A freshly recorded task references from's token prefix in place: from and
// to are representatives and tokens[0:lim] is immutable until the next
// unification. A collapse round pending while tasks are deferred does not
// wait for them (that would either serialize the push work inline or defer
// the collapse past an epoch of redundant deliveries): materializePushes
// copies each prefix into toks first, after which merges may rebuild token
// arrays and retire reps freely — partition re-resolves from/to against the
// post-collapse forest.
type pushTask struct {
	from Var
	to   Var
	lim  int32
	toks []Token
}

// Chunk kinds: a chunk scans either a slice of a shard's delivery frontier
// or a slice of the deferred push-task list.
const (
	chunkFrontier = int8(iota)
	chunkPush
)

// chunkRef identifies one contiguous run of a shard's frontier (kind
// chunkFrontier) or of the active push-task list (kind chunkPush, shard -1).
type chunkRef struct {
	id    int32
	shard int32
	lo    int32
	hi    int32
	kind  int8
}

// chunkOut is the scan output of one chunk, indexed by the chunk's
// deterministic id so its content never depends on which worker produced
// it. Slices are parallel per delivery: ends[i] is the end offset of
// delivery i's proposals in dests, edgeCnt[i] is the epoch-start edge count
// (-1 when the delivery was already redundant at scan time), selfCnt[i] the
// self-edges among them.
type chunkOut struct {
	dests   []Var
	ends    []int32
	edgeCnt []int32
	selfCnt []int32
	// trig freezes each delivery's trigger count at scan time. The tail
	// fires exactly triggers[0:trig[i]]: anything registered later was
	// registered during this tail, after every delivery of the epoch
	// advanced `delivered`, so its registration-time replay already covered
	// these tokens — firing it from the tail loop too would double-fire.
	trig []int32
	// live records the apply pass's per-delivery liveness verdict (written
	// by the source shard's owner): false when the delivery was redundant at
	// epoch start (edgeCnt -1) or was a same-epoch duplicate whose earlier
	// occurrence already advanced `delivered`. The tail skips dead
	// deliveries entirely, as the serial barrier did.
	live []bool
	// lcdDests are the destinations whose sets already contained the token
	// at scan time — the sequential engine's lazy-cycle-detection signal —
	// delimited per delivery by lcdEnds. The tail replays them through
	// noteLCD so cycle detection sees the same redundant-delivery evidence
	// the sequential engine would, just at epoch rather than pop granularity.
	lcdDests []Var
	lcdEnds  []int32

	// code and lcdKeep are written by the winnow phase, one entry per dests /
	// lcdDests slot. Each slot is written by exactly one winnow worker (the
	// owner of the destination's shard), so concurrent writes never alias.
	// A winnowWinner slot's token is already in the destination's set when
	// the winnow phase ends; the tail only schedules it.
	code    []int8 // winnowWinner / winnowDup / winnowDupNewPair
	lcdKeep []bool

	// Push-chunk output (kind chunkPush): pushToks holds the membership-
	// negative tokens of each task, delimited by pushEnds; pushRed records
	// whether any token was already present (the bulk-push cycle signal).
	// pushCode (per token) and pushPairNew (per task) are winnow verdicts.
	pushToks    []Token
	pushEnds    []int32
	pushRed     []bool
	pushCode    []int8
	pushPairNew []bool
}

// Winnow verdicts for one proposal slot.
const (
	winnowWinner     = int8(iota) // first proposal of its (dest, token) this epoch: inserted
	winnowDup                     // duplicate, LCD pair already known: skip entirely
	winnowDupNewPair              // duplicate carrying a new cycle-detection pair
)

// wsDeque is a fixed-content Chase-Lev work-stealing deque: the owner pops
// from the bottom (LIFO, cache-warm), thieves steal from the top with a
// CAS. The item array is filled before the workers start and never written
// afterwards, so the classic ring-buffer growth races cannot occur; top and
// bottom are the only shared mutable words.
type wsDeque struct {
	items  []chunkRef
	top    atomic.Int64
	bottom atomic.Int64
	// pad keeps neighboring deques off one cache line under false sharing.
	_ [64]byte
}

func (d *wsDeque) reset() {
	d.items = d.items[:0]
	d.top.Store(0)
	d.bottom.Store(0)
}

func (d *wsDeque) push(c chunkRef) {
	// Pre-distribution only: runs before the workers launch.
	d.items = append(d.items, c)
	d.bottom.Store(int64(len(d.items)))
}

// popBottom takes the owner's next chunk, or reports an empty deque.
func (d *wsDeque) popBottom() (chunkRef, bool) {
	b := d.bottom.Add(-1)
	t := d.top.Load()
	if t > b {
		d.bottom.Store(b + 1)
		return chunkRef{}, false
	}
	c := d.items[b]
	if t == b {
		// Last item: contend with thieves for it via the top CAS.
		if !d.top.CompareAndSwap(t, t+1) {
			d.bottom.Store(b + 1)
			return chunkRef{}, false
		}
		d.bottom.Store(b + 1)
	}
	return c, true
}

// stealTop takes the oldest chunk from a victim's deque. The third result
// reports whether the deque looked nonempty (a failed CAS counts: someone
// else won the race, so the thief should keep scanning victims).
func (d *wsDeque) stealTop() (chunkRef, bool, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return chunkRef{}, false, false
	}
	c := d.items[t]
	if !d.top.CompareAndSwap(t, t+1) {
		return chunkRef{}, false, true
	}
	return c, true, true
}

// applyAcc is one apply-pass worker's effort accumulator. The tail folds
// the accumulators into the solver counters with plain integer sums, which
// are independent of how deliveries were split across workers, so counters
// stay identical at every worker count. Padded against false sharing.
type applyAcc struct {
	iterations int64
	delivered  int64
	redundant  int64
	crossShard int64
	swaps      int64
	_          [24]byte
}

// parallelEngine holds the reusable epoch state of one solver. All fields
// are owned by the solver goroutine outside the parallel phases; during a
// scan or apply pass, shardFrontier/chunks are read-only, outs entries are
// written by exactly one worker each (chunks are claimed exactly once in
// the scan; the winnow and apply passes partition slots by shard), and the
// deques synchronize claiming.
type parallelEngine struct {
	workers int
	stats   ParallelSolveStats
	// shardDelivered counts apply-pass-processed deliveries per shard —
	// deterministic, used to observe shard balance. Written only by each
	// shard's owning worker.
	shardDelivered [nShards]int64

	shardFrontier [nShards][]delivery
	chunks        []chunkRef
	outs          []chunkOut
	deques        []wsDeque
	accs          []applyAcc

	// deferPush is set for the duration of a serial tail: addEdge calls
	// from triggers record pushTasks instead of pushing token prefixes
	// inline. partition moves the accumulated tasks into pushActive, whose
	// chunks the next scan executes.
	deferPush  bool
	pushTasks  []pushTask
	pushActive []pushTask

	// Concurrent-sweep state. A sweep runs on its own goroutine from a
	// between-epoch launch point to the next tail's join; sweepLive is true
	// for exactly that window (set and cleared on the solver goroutine, so
	// reads from partition are unsynchronized but safe). sweepComps holds
	// the joined components until the next between-epoch point collapses
	// them; sweepDone distinguishes "joined, reconciliation pending" from
	// "no sweep activity".
	sweepLive      bool
	sweepDone      bool
	sweepComps     [][]Var
	sweepVisited   int64
	sweepJoin      chan struct{}
	sweepComputeNS int64
	sweepScratch   sweepScratch

	// Winnow scratch: per-destination-shard stamp maps of the cycle-pair
	// sightings this epoch. An entry is live only when its value equals
	// winStamp, so epochs never clear them. Every key is a representative
	// edge that carried a redundant proposal, so the maps stay within the
	// edge count, like lcdChecked.
	winStamp int32
	winPair  [nShards]map[edgePair]int32
}

func newParallelEngine(workers int) *parallelEngine {
	if workers < 1 {
		workers = 1
	}
	return &parallelEngine{
		workers: workers,
		deques:  make([]wsDeque, workers),
		accs:    make([]applyAcc, workers),
	}
}

// configureParallel switches the solver to the epoch engine with the given
// worker count (≤ 0 keeps the sequential engine).
func (s *solver) configureParallel(workers int) {
	if workers > 0 {
		s.par = newParallelEngine(workers)
	} else {
		s.par = nil
	}
}

// solveParallel is the epoch-engine counterpart of the sequential pop loop
// in solve. Between epochs it runs the LCD/sweep cadence (with batched
// Tarjan sweeps handed to a concurrent worker); within an epoch the
// frontier is scanned, winnowed, and applied in parallel, then reconciled
// by the serial tail.
func (s *solver) solveParallel() {
	p := s.par
	// Entry sweep, as in the sequential engine: synchronous, since there is
	// no parallel work to overlap it with yet.
	s.collapseAllSCCs()
	for s.head < len(s.queue) || len(p.pushTasks) > 0 || p.sweepLive || p.sweepDone {
		if p.sweepDone {
			// Reconcile the sweep joined by the previous tail: collapse its
			// components. Edges were only added since the sweep's snapshot
			// (no unification ran — it is gated off while a sweep is live or
			// unreconciled), so each snapshot SCC is still an SCC and its
			// members are still representatives.
			p.sweepDone = false
			s.sweepVisited += p.sweepVisited
			if len(p.sweepComps) > 0 {
				p.materializePushes(s)
				for _, comp := range p.sweepComps {
					s.collapse(comp)
				}
				p.sweepComps = nil
			}
		}
		budget := 0 // unlimited
		if len(s.lcdPending) > 0 {
			// Keep the epoch short when cycle evidence was still pending at
			// its start: collapse rounds run below, but a path search can
			// miss its cycle (budget exhaustion) and an async sweep's
			// components land one epoch late, so the frontier consumed on
			// possibly-uncollapsed state stays bounded.
			budget = cycleEpochCap
		}
		if !p.sweepLive && (len(s.lcdPending) > 0 || s.iterations >= s.nextSweep) {
			// Collapse round: every epoch that produced cycle evidence gets
			// one, like the sequential engine collapsing before the next pop.
			// Deferred pushes never wait for it and never run inline for it —
			// they are materialized (prefixes copied) so unification cannot
			// invalidate them, and they stay parallel scan work.
			periodic := s.iterations >= s.nextSweep
			if periodic || len(s.lcdPending) >= lcdSweepBatch {
				// Batched resolution: an SCC sweep from the changed edges
				// subsumes the per-pair searches (see runLCD). With a large
				// frontier queued it runs concurrently with the next epoch's
				// parallel phases instead of on the critical path — the
				// evidence is consumed now (the pairs are already in
				// lcdChecked) and the components land after the next tail;
				// with a small frontier it runs synchronously, like the
				// sequential engine's sweep.
				s.lcdPending = s.lcdPending[:0]
				if periodic {
					s.nextSweep = s.iterations + s.sweepInterval()
				}
				if len(s.sweepRoots) > 0 {
					if len(s.queue)-s.head >= asyncSweepMinFrontier {
						p.launchSweep(s)
					} else {
						p.materializePushes(s)
						s.collapseAllSCCs()
					}
				}
			} else {
				// Small batch: bounded per-pair searches with inline collapse,
				// cheap enough to stay synchronous.
				p.materializePushes(s)
				s.runLCD()
			}
		}
		p.partition(s, budget)
		nw := p.scan(s)
		p.winnow(s, nw)
		p.apply(s, nw)
		p.tail(s)
		p.stats.Epochs++
	}
	s.queue = s.queue[:0]
	s.head = 0
}

// launchSweep starts a concurrent batched Tarjan sweep over the current
// (epoch-frozen) edge and parent state. The traversal is strictly read-only
// (findRO, dedicated scratch) and overlaps the next epoch's partition,
// scan, winnow, and apply phases, none of which mutate edges or the parent
// forest; the tail joins it before triggers run. The worker takes the
// current sweep roots; edges added while it runs start a fresh list, which
// the next sweep consumes.
func (p *parallelEngine) launchSweep(s *solver) {
	p.stats.AsyncSweeps++
	roots := s.sweepRoots
	s.sweepRoots = nil
	p.sweepLive = true
	p.sweepJoin = make(chan struct{})
	n := s.nVars
	go func() {
		t0 := time.Now()
		p.sweepComps, p.sweepVisited = s.sccFromRoots(roots, n, &p.sweepScratch)
		p.sweepComputeNS = time.Since(t0).Nanoseconds()
		close(p.sweepJoin)
	}()
}

// joinSweep blocks until the in-flight sweep (if any) finishes, accounting
// the overlap between its compute time and the parallel phases it ran under.
func (p *parallelEngine) joinSweep(s *solver) {
	if !p.sweepLive {
		return
	}
	w0 := time.Now()
	<-p.sweepJoin
	waitNS := time.Since(w0).Nanoseconds()
	if overlap := p.sweepComputeNS - waitNS; overlap > 0 {
		p.stats.SweepOverlapNS += overlap
	}
	p.sweepLive = false
	p.sweepDone = true
}

// partition drains the delivery queue — all of it, or at most budget
// entries when cycle detection asked for a short epoch — into per-shard
// frontiers and cuts them into chunks in shard-ascending order. Chunk ids
// are assigned in that fixed order, making every downstream index
// deterministic. Addresses resolve through find (path compression) when the
// parent forest is quiescent, or findRO while a concurrent sweep holds a
// read-only view of it; both return the same representative.
func (p *parallelEngine) partition(s *solver, budget int) {
	for i := range p.shardFrontier {
		p.shardFrontier[i] = p.shardFrontier[i][:0]
	}
	n := len(s.queue) - s.head
	if budget > 0 && n > budget {
		n = budget
	}
	if p.sweepLive {
		for _, d := range s.queue[s.head : s.head+n] {
			v := s.findRO(d.v)
			sh := shardOfRep(v)
			p.shardFrontier[sh] = append(p.shardFrontier[sh], delivery{v, d.t})
		}
	} else {
		for _, d := range s.queue[s.head : s.head+n] {
			v := s.find(d.v)
			sh := shardOfRep(v)
			p.shardFrontier[sh] = append(p.shardFrontier[sh], delivery{v, d.t})
		}
	}
	s.head += n
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
	} else if s.head >= queueCompactMin && s.head*2 >= len(s.queue) {
		// Same compaction policy as the sequential pop loop.
		m := copy(s.queue, s.queue[s.head:])
		s.queue = s.queue[:m]
		s.head = 0
	}
	p.chunks = p.chunks[:0]
	for sh := 0; sh < nShards; sh++ {
		n := len(p.shardFrontier[sh])
		for lo := 0; lo < n; lo += epochChunk {
			hi := lo + epochChunk
			if hi > n {
				hi = n
			}
			p.chunks = append(p.chunks,
				chunkRef{id: int32(len(p.chunks)), shard: int32(sh), lo: int32(lo), hi: int32(hi)})
		}
	}
	// Deferred prefix pushes from the previous tail run as scan work this
	// epoch, chunked by token weight so one wide push cannot unbalance the
	// steal deques. Their chunks follow the frontier chunks in the fixed
	// replay order. Endpoints are re-resolved first: a collapse round since
	// the task was recorded may have retired either rep (materialized tasks
	// only — in-place tasks always precede the next unification). A merge
	// that joined the two endpoints makes the push internal to one rep;
	// mergeContents already delivered the tokens, so the task is dropped.
	p.pushActive, p.pushTasks = p.pushTasks, p.pushActive[:0]
	live := p.pushActive[:0]
	for _, tk := range p.pushActive {
		if p.sweepLive {
			tk.from, tk.to = s.findRO(tk.from), s.findRO(tk.to)
		} else {
			tk.from, tk.to = s.find(tk.from), s.find(tk.to)
		}
		if tk.from != tk.to {
			live = append(live, tk)
		}
	}
	p.pushActive = live
	const pushChunkWeight = 2048
	for lo, weight := 0, int32(0); lo < len(p.pushActive); {
		hi := lo
		for hi < len(p.pushActive) && (hi == lo || weight+p.pushActive[hi].lim <= pushChunkWeight) {
			weight += p.pushActive[hi].lim
			hi++
		}
		p.chunks = append(p.chunks,
			chunkRef{id: int32(len(p.chunks)), shard: -1, lo: int32(lo), hi: int32(hi), kind: chunkPush})
		lo, weight = hi, 0
	}
}

// scan runs the read-only proposal phase over every chunk and returns the
// effective worker count for the epoch (1 when it ran inline), which the
// winnow and apply phases reuse. Small frontiers (or a single worker) run
// inline on the solver goroutine; larger ones are distributed round-robin
// over the worker deques and scanned concurrently.
func (p *parallelEngine) scan(s *solver) int {
	t0 := time.Now()
	nc := len(p.chunks)
	for cap(p.outs) < nc {
		p.outs = append(p.outs[:cap(p.outs)], chunkOut{})
	}
	p.outs = p.outs[:nc]

	frontier := 0
	for sh := range p.shardFrontier {
		frontier += len(p.shardFrontier[sh])
	}
	for i := range p.pushActive {
		// A push task is scan work proportional to its prefix length.
		frontier += int(p.pushActive[i].lim)
	}
	nw := p.workers
	if nw > nc {
		nw = nc
	}
	if nw <= 1 || frontier <= inlineFrontierMax {
		for i := range p.chunks {
			c := p.chunks[i]
			p.scanChunk(s, c, &p.outs[c.id])
		}
		p.stats.ScanNS += time.Since(t0).Nanoseconds()
		return 1
	}

	for wi := 0; wi < nw; wi++ {
		p.deques[wi].reset()
	}
	for i := range p.chunks {
		p.deques[i%nw].push(p.chunks[i])
	}
	var wg sync.WaitGroup
	for wi := 0; wi < nw; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			p.runWorker(s, wi, nw)
		}(wi)
	}
	wg.Wait()
	p.stats.ScanNS += time.Since(t0).Nanoseconds()
	return nw
}

// runWorker drains the worker's own deque bottom-first, then steals chunks
// from other workers until no deque has work left. No new chunks appear
// during a scan, so an all-empty sweep over the victims is a sound
// termination condition.
func (p *parallelEngine) runWorker(s *solver, wi, nw int) {
	d := &p.deques[wi]
	var steals int64
	for {
		c, ok := d.popBottom()
		if !ok {
			c, ok = p.stealAny(wi, nw, &steals)
			if !ok {
				break
			}
		}
		p.scanChunk(s, c, &p.outs[c.id])
	}
	if steals > 0 {
		atomic.AddInt64(&p.stats.Steals, steals)
	}
}

func (p *parallelEngine) stealAny(wi, nw int, steals *int64) (chunkRef, bool) {
	for {
		sawWork := false
		for k := 1; k < nw; k++ {
			v := &p.deques[(wi+k)%nw]
			c, ok, nonempty := v.stealTop()
			if ok {
				*steals++
				return c, true
			}
			if nonempty {
				sawWork = true
			}
		}
		if !sawWork {
			return chunkRef{}, false
		}
	}
}

// scanChunk computes one chunk's proposals. Strictly read-only over solver
// state: it may only call findRO (no compression), isProcessed/hasToken
// (membership reads), and read edge and trigger slices. Its output depends
// only on the epoch-start state and the chunk bounds — never on scheduling.
func (p *parallelEngine) scanChunk(s *solver, c chunkRef, out *chunkOut) {
	if c.kind == chunkPush {
		p.scanPushChunk(s, c, out)
		return
	}
	f := p.shardFrontier[c.shard][c.lo:c.hi]
	out.dests = out.dests[:0]
	out.ends = out.ends[:0]
	out.edgeCnt = out.edgeCnt[:0]
	out.selfCnt = out.selfCnt[:0]
	out.trig = out.trig[:0]
	out.lcdDests = out.lcdDests[:0]
	out.lcdEnds = out.lcdEnds[:0]
	for _, d := range f {
		st := s.state(d.v)
		// Trigger lists only grow in serial tails (and between epochs), so
		// the count is frozen for the whole pipeline round.
		out.trig = append(out.trig, int32(len(st.triggers)))
		if st.isProcessed(d.t) {
			// Already processed when the epoch started (a duplicate queue
			// entry from before a merge); the apply pass will skip it too.
			out.edgeCnt = append(out.edgeCnt, -1)
			out.selfCnt = append(out.selfCnt, 0)
			out.ends = append(out.ends, int32(len(out.dests)))
			out.lcdEnds = append(out.lcdEnds, int32(len(out.lcdDests)))
			continue
		}
		self := int32(0)
		for _, e := range st.edges {
			w := s.findRO(e)
			if w == d.v {
				self++
				continue
			}
			if s.state(w).hasToken(d.t) {
				// Redundant delivery: the cycle-detection signal. Pairs the
				// solver has already checked (lcdChecked is written only
				// between scans, so reading it here is race-free and
				// deterministic) would be dropped by noteLCD anyway — filter
				// them in parallel instead of serially in the tail. On
				// dispatch-heavy graphs this is most of the traffic.
				if _, done := s.lcdChecked[edgePair{d.v, w}]; !done {
					out.lcdDests = append(out.lcdDests, w)
				}
			} else {
				out.dests = append(out.dests, w)
			}
		}
		out.edgeCnt = append(out.edgeCnt, int32(len(st.edges)))
		out.selfCnt = append(out.selfCnt, self)
		out.ends = append(out.ends, int32(len(out.dests)))
		out.lcdEnds = append(out.lcdEnds, int32(len(out.lcdDests)))
	}
	// Pre-size the winnow/apply verdict arrays; the winnow workers fill
	// every code and lcdKeep slot, the apply pass every live slot.
	if cap(out.code) < len(out.dests) {
		out.code = make([]int8, len(out.dests))
	}
	out.code = out.code[:len(out.dests)]
	if cap(out.lcdKeep) < len(out.lcdDests) {
		out.lcdKeep = make([]bool, len(out.lcdDests))
	}
	out.lcdKeep = out.lcdKeep[:len(out.lcdDests)]
	if cap(out.live) < len(f) {
		out.live = make([]bool, len(f))
	}
	out.live = out.live[:len(f)]
}

// scanPushChunk scans a run of deferred prefix pushes: for each task it
// membership-filters the token prefix (in place for fresh tasks, the
// materialized copy after a collapse round) against the destination's set.
// Read-only like the frontier scan — partition resolved the endpoints and
// both the in-place prefix and the copy are immutable for the epoch.
func (p *parallelEngine) scanPushChunk(s *solver, c chunkRef, out *chunkOut) {
	tasks := p.pushActive[c.lo:c.hi]
	out.pushToks = out.pushToks[:0]
	out.pushEnds = out.pushEnds[:0]
	out.pushRed = out.pushRed[:0]
	for i := range tasks {
		tk := tasks[i]
		toks := tk.toks
		if toks == nil {
			toks = s.state(tk.from).tokens[:tk.lim]
		}
		dst := s.state(tk.to)
		red := false
		for _, t := range toks {
			if dst.hasToken(t) {
				red = true
			} else {
				out.pushToks = append(out.pushToks, t)
			}
		}
		out.pushRed = append(out.pushRed, red)
		out.pushEnds = append(out.pushEnds, int32(len(out.pushToks)))
	}
	if cap(out.pushCode) < len(out.pushToks) {
		out.pushCode = make([]int8, len(out.pushToks))
	}
	out.pushCode = out.pushCode[:len(out.pushToks)]
	if cap(out.pushPairNew) < len(tasks) {
		out.pushPairNew = make([]bool, len(tasks))
	}
	out.pushPairNew = out.pushPairNew[:len(tasks)]
}

// materializePushes detaches every pending deferred push from the solver
// state it references: the frozen token prefix is copied into the task.
// Called before any unification while pushes are pending — merges rebuild
// token arrays and retire representatives, which would invalidate the
// in-place prefixes, but a materialized task survives any merge (partition
// re-resolves its endpoints against the post-collapse forest). This is what
// lets collapse rounds run immediately on fresh cycle evidence without
// either serializing the pending push work inline or deferring the collapse
// past an epoch of redundant deliveries.
func (p *parallelEngine) materializePushes(s *solver) {
	for i := range p.pushTasks {
		tk := &p.pushTasks[i]
		if tk.toks != nil {
			continue
		}
		tk.toks = append([]Token(nil), s.state(tk.from).tokens[:tk.lim]...)
	}
}

// winnow is the combining phase between scan and apply: it walks every
// chunk's proposals in exact replay order and, per destination shard,
// inserts the proposed tokens into the destinations' sets. Diamond-shaped
// graphs propose the same (destination, token) pair from many sources
// within one epoch; the first proposal in replay order finds the token
// absent, inserts it, and wins (winnowWinner). Later ones find it present
// and are marked winnowDup, or winnowDupNewPair for the first duplicate
// carrying a source→dest pair that lazy cycle detection has not checked
// yet. lcdDests slots get the same per-pair dedup.
//
// Exactness: scan proposes only tokens absent from the destination at
// epoch start, and within an epoch only winners insert, so "first to find
// it absent" is "first in replay order". Winnow-time appends land past each
// set's epoch-start length, while the apply pass moves tokens only within
// [delivered, epoch-start length), so the two phases commute. The
// concurrent sweep reads only edges and parents, never token sets.
//
// Determinism: verdicts for a destination shard depend only on that shard's
// proposal sequence in fixed chunk order, its epoch-start token sets, and
// epoch-start lcdChecked — never on which worker processed the shard — so
// the inserts, the tail and all counters are identical at every worker
// count, and identical to running this phase inline. Workers partition by
// destination shard (shard mod nw), so every destination set and scratch
// map is touched by one worker only; verdict slots are written by exactly
// one worker each.
func (p *parallelEngine) winnow(s *solver, nw int) {
	t0 := time.Now()
	defer func() { p.stats.ScanNS += time.Since(t0).Nanoseconds() }()
	p.winStamp++
	if nw <= 1 {
		p.winnowShards(s, 0, 1) // stride 1: one walk handles every shard
		return
	}
	var wg sync.WaitGroup
	for wi := 0; wi < nw; wi++ {
		wg.Add(1)
		go func(wi int32) {
			defer wg.Done()
			p.winnowShards(s, wi, int32(nw))
		}(int32(wi))
	}
	wg.Wait()
}

// winnowShards computes the verdicts and performs the winning inserts of
// every destination shard congruent to first modulo stride, walking all
// chunks in replay order. Effort lands in worker first's accumulator.
func (p *parallelEngine) winnowShards(s *solver, first, stride int32) {
	stamp := p.winStamp
	acc := &p.accs[first]
	for ci := range p.chunks {
		c := p.chunks[ci]
		out := &p.outs[c.id]
		if c.kind == chunkPush {
			p.winnowPushChunk(s, c, out, acc, first, stride, stamp)
			continue
		}
		f := p.shardFrontier[c.shard][c.lo:c.hi]
		pstart, lstart := int32(0), int32(0)
		for di := range f {
			d := f[di]
			pend, lend := out.ends[di], out.lcdEnds[di]
			for pi := pstart; pi < pend; pi++ {
				w := out.dests[pi]
				sh := shardOfRep(w)
				if stride > 1 && sh%stride != first {
					continue
				}
				if ws := s.state(w); !ws.hasToken(d.t) {
					ws.appendToken(d.t)
					out.code[pi] = winnowWinner
					if sh != c.shard {
						acc.crossShard++
					}
					continue
				}
				out.code[pi] = p.winnowPair(s, sh, edgePair{d.v, w}, stamp)
			}
			for li := lstart; li < lend; li++ {
				w := out.lcdDests[li]
				sh := shardOfRep(w)
				if stride > 1 && sh%stride != first {
					continue
				}
				out.lcdKeep[li] = p.winnowPair(s, sh, edgePair{d.v, w}, stamp) == winnowDupNewPair
			}
			pstart, lstart = pend, lend
		}
	}
}

// winnowPushChunk handles a push chunk: per-token winner selection by
// direct insert into the same destination sets the frontier proposals use —
// which is what makes a cross-kind duplicate (a queued delivery and a
// prefix push proposing the same insertion) resolve to exactly one winner —
// plus one cycle-pair verdict per task, since every redundancy in a push
// carries the same (from, to) pair. The sequential addEdge's accounting
// comes along: every token of the frozen prefix was one delivery attempt,
// counted once by the destination's owner.
func (p *parallelEngine) winnowPushChunk(s *solver, c chunkRef, out *chunkOut, acc *applyAcc, first, stride, stamp int32) {
	tasks := p.pushActive[c.lo:c.hi]
	pstart := int32(0)
	for ti := range tasks {
		tk := tasks[ti]
		pend := out.pushEnds[ti]
		sh := shardOfRep(tk.to)
		if stride > 1 && sh%stride != first {
			pstart = pend
			continue
		}
		pairWant := out.pushRed[ti]
		dst := s.state(tk.to)
		cross := sh != shardOfRep(tk.from)
		for pi := pstart; pi < pend; pi++ {
			if t := out.pushToks[pi]; !dst.hasToken(t) {
				dst.appendToken(t)
				out.pushCode[pi] = winnowWinner
				if cross {
					acc.crossShard++
				}
			} else {
				out.pushCode[pi] = winnowDup
				pairWant = true
			}
		}
		out.pushPairNew[ti] = pairWant &&
			p.winnowPair(s, sh, edgePair{tk.from, tk.to}, stamp) == winnowDupNewPair
		acc.delivered += int64(tk.lim)
		pstart = pend
	}
}

// winnowPair classifies a redundant delivery's source→dest pair: the first
// sighting this epoch of a pair lazy cycle detection has not checked yet is
// the one the tail must hand to noteLCD. lcdChecked is written only
// between epochs and in tails, so reading it here is race-free.
func (p *parallelEngine) winnowPair(s *solver, sh int32, pair edgePair, stamp int32) int8 {
	if _, done := s.lcdChecked[pair]; done {
		return winnowDup
	}
	wp := p.winPair[sh]
	if wp == nil {
		wp = make(map[edgePair]int32)
		p.winPair[sh] = wp
	}
	if wp[pair] == stamp {
		return winnowDup
	}
	wp[pair] = stamp
	return winnowDupNewPair
}

// apply is the shard-owned parallel bookkeeping pass over the frontier:
// every worker walks the chunks of the shards it owns (shard mod worker
// count) in the fixed replay order and decides, per delivery, whether it is
// live, advancing the source's processed prefix and accounting its effort.
// The winning inserts into destinations already happened in the winnow
// phase, so one varState is only ever touched by one worker per phase, in
// the same relative order the serial barrier used.
//
// The pass mutates token sets and per-worker accumulators only; everything
// order-sensitive across shards (queue scheduling, cycle evidence, trigger
// firing) is staged for the serial tail via the verdict arrays. No edge or
// parent state is written, which is what lets a concurrent sweep overlap it.
func (p *parallelEngine) apply(s *solver, nw int) {
	t0 := time.Now()
	if nw <= 1 {
		p.applyWorker(s, 0, 1)
	} else {
		var wg sync.WaitGroup
		for wi := 0; wi < nw; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				p.applyWorker(s, wi, nw)
			}(wi)
		}
		wg.Wait()
	}
	// Fold the per-worker effort accumulators (winnow's and apply's) into
	// the solver counters. Integer sums are independent of the ownership
	// split, so the totals are identical at every worker count.
	for wi := 0; wi < nw; wi++ {
		acc := &p.accs[wi]
		s.iterations += acc.iterations
		s.tokensDelivered += acc.delivered
		s.redundantSkipped += acc.redundant
		s.swaps += acc.swaps
		p.stats.CrossShard += acc.crossShard
		*acc = applyAcc{}
	}
	p.stats.ApplyNS += time.Since(t0).Nanoseconds()
}

// applyWorker performs worker wi's owned share of the apply pass, exactly
// as the serial barrier's prologue: one iteration per frontier delivery,
// and dead ones — already processed at epoch start, or a same-epoch
// duplicate whose earlier occurrence (same variable, same owner, earlier
// in the fixed order) advanced delivered — count one redundant skip and
// nothing else.
func (p *parallelEngine) applyWorker(s *solver, wi, nw int) {
	acc := &p.accs[wi]
	for ci := range p.chunks {
		c := p.chunks[ci]
		if c.kind == chunkPush || (nw > 1 && int(c.shard)%nw != wi) {
			continue
		}
		out := &p.outs[c.id]
		f := p.shardFrontier[c.shard][c.lo:c.hi]
		for di := range f {
			d := f[di]
			acc.iterations++
			live := out.edgeCnt[di] >= 0
			if live {
				st := s.state(d.v)
				if st.isProcessed(d.t) {
					live = false
				} else {
					// Exact sequential accounting: every non-self edge was one
					// delivery attempt, every self-edge one redundant skip.
					acc.delivered += int64(out.edgeCnt[di] - out.selfCnt[di])
					acc.redundant += int64(out.selfCnt[di])
					if st.deliver(d.t) {
						acc.swaps++
					}
					p.shardDelivered[c.shard]++
				}
			}
			if !live {
				acc.redundant++
			}
			out.live[di] = live
		}
	}
}

// tail is the serial reconciliation of one epoch: it joins the concurrent
// sweep (if one is in flight — triggers below mutate the edge lists the
// sweep reads), then replays the epoch in the fixed order (shards ascending,
// per-shard sequence order). Per live delivery: winning inserts are
// scheduled on the delivery queue (in slot order, so next epoch's frontier
// order is scheduling-independent), surviving cycle evidence goes through
// noteLCD, and the delivery's triggers fire — each against the
// epoch-advanced state, with the scan-frozen trigger count guaranteeing
// exactly-once firing (triggers registered during this very tail replayed
// the advanced prefix at registration instead). All mutation of analyzer
// state and all order-sensitive solver mutation happens here, on the solver
// goroutine.
func (p *parallelEngine) tail(s *solver) {
	t0 := time.Now()
	p.joinSweep(s)
	// Triggers fired below may add edges; their prefix pushes are deferred
	// into next epoch's scan (see addEdge).
	p.deferPush = true
	defer func() {
		p.deferPush = false
		p.stats.TailNS += time.Since(t0).Nanoseconds()
	}()
	for ci := range p.chunks {
		c := p.chunks[ci]
		out := &p.outs[c.id]
		if c.kind == chunkPush {
			p.tailPushChunk(s, c, out)
			continue
		}
		f := p.shardFrontier[c.shard][c.lo:c.hi]
		pstart, lstart := int32(0), int32(0)
		for di := range f {
			d := f[di]
			pend, lend := out.ends[di], out.lcdEnds[di]
			if !out.live[di] {
				// Redundant (skip already accounted by the apply pass). A dead
				// delivery never owns a winner slot: its earlier live
				// duplicate made the identical proposals first, and scan-dead
				// deliveries propose nothing.
				pstart, lstart = pend, lend
				continue
			}
			for pi := pstart; pi < pend; pi++ {
				switch out.code[pi] {
				case winnowWinner:
					// Inserted by the winnow phase; schedule its processing.
					s.queue = append(s.queue, delivery{out.dests[pi], d.t})
				case winnowDupNewPair:
					// noteLCD re-checks lcdChecked: an earlier note this tail
					// may have claimed the pair first.
					s.noteLCD(d.v, out.dests[pi])
				}
			}
			for li := lstart; li < lend; li++ {
				if out.lcdKeep[li] {
					s.noteLCD(d.v, out.lcdDests[li])
				}
			}
			pstart, lstart = pend, lend
			// Trigger snapshot from scan time: triggers registered since (by
			// this tail's own triggers) already saw d.t through the
			// registration-time replay of the epoch-advanced prefix.
			st := s.state(d.v)
			n := int(out.trig[di])
			for i := 0; i < n; i++ {
				st.triggers[i](d.t)
			}
		}
	}
}

// tailPushChunk replays a push chunk's order-sensitive effects: winning
// inserts are scheduled, and a redundant push notes its (from, to) pair for
// lazy cycle detection at most once — the same one-note-per-push evidence
// as the inline addEdge path.
func (p *parallelEngine) tailPushChunk(s *solver, c chunkRef, out *chunkOut) {
	tasks := p.pushActive[c.lo:c.hi]
	pstart := int32(0)
	for ti := range tasks {
		tk := tasks[ti]
		pend := out.pushEnds[ti]
		for pi := pstart; pi < pend; pi++ {
			if out.pushCode[pi] == winnowWinner {
				s.queue = append(s.queue, delivery{tk.to, out.pushToks[pi]})
			}
		}
		if out.pushPairNew[ti] {
			s.noteLCD(tk.from, tk.to)
		}
		pstart = pend
	}
}

// parallelStats snapshots the epoch engine's counters so far (zero when
// the sequential engine is configured).
func (s *solver) parallelStats() ParallelSolveStats {
	if s.par == nil {
		return ParallelSolveStats{}
	}
	return s.par.stats
}
