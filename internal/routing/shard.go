package routing

import (
	"sort"
	"sync"
)

// Parallel sharded convergence. The sequential (Gauss–Seidel) sweep
// processes speakers one at a time in hostname order; its output is the
// byte-identity oracle every other evaluation mode must match. Sharding
// exploits the topology's AS structure to recover parallelism without
// giving up that identity: iBGP meshes are AS-local, so partitioning
// speakers by ASN yields a shard graph whose cut edges are exactly the
// eBGP sessions. Inside each round, shards evaluate
// concurrently on a bounded worker pool, but every speaker still observes
// exactly the peer states the sequential sweep would have shown it:
//
//   - within a shard, speakers run in hostname order (the sweep order);
//   - across shards, a speaker X with a session peer P earlier in the
//     sweep (P < X) waits until P has finished this round. Because P < X
//     implies P is a dependency of X and X < P implies the converse,
//     session endpoints are never evaluated concurrently.
//
// Hostname order is a topological order of this dependency DAG (every
// dependency points strictly backwards), so the wavefront always makes
// progress: the lowest-indexed unprocessed speaker has all dependencies
// satisfied, hence its shard is runnable. Each speaker therefore reads its
// predecessors' round-r state and its successors' round-(r-1) state — the
// Gauss–Seidel contract — and computes bit-for-bit what the sequential
// sweep computes.
//
// Both drivers run the same per-speaker turn (rib.go). A turn writes only
// its own speaker's lists — including the adj-RIB-outs its peers read,
// which is safe for the reason above — and leaves everything engine-level
// (churn counters, changed-at stamps, the round's work record,
// perturbation events) in its turnResult slot. The sequential driver
// applies each slot at once; this one applies them all at a merge barrier,
// single-threaded and in sweep order, which is the order the sequential
// sweep applied them in. Counters and event logs are therefore
// byte-identical at any shard/worker count.

// Shard is one unit of the structural partition: an AS and its speakers in
// sweep (hostname) order. Every speaker appears in exactly one shard.
type Shard struct {
	ASN      int
	Speakers []string
}

// shardPlan is the engine's precomputed partition and dependency DAG. The
// session graph changes only when the engine is wired, so the plan is
// computed on first use after a wiring and cached until the next one.
type shardPlan struct {
	shards  [][]int // per shard (ascending ASN): its speakers' indices, ascending
	shardOf []int   // speaker index -> shard index
	// deps[i] lists i's cross-shard session peers that precede it in the
	// sweep — the speakers i must wait for each round. Same-shard
	// predecessors are ordered by the shard's own sequential execution.
	deps [][]int
}

// shardPlan returns the cached partition, building it on first use.
func (e *BGPEngine) shardPlan() *shardPlan {
	if e.plan != nil {
		return e.plan
	}
	p := &shardPlan{
		shardOf: make([]int, len(e.sp)),
		deps:    make([][]int, len(e.sp)),
	}
	byASN := map[int][]int{}
	for i, sp := range e.sp {
		asn := sp.asn
		byASN[asn] = append(byASN[asn], i) // ascending: e.sp is in sweep order
	}
	asns := make([]int, 0, len(byASN))
	for asn := range byASN {
		asns = append(asns, asn)
	}
	sort.Ints(asns)
	for sid, asn := range asns {
		p.shards = append(p.shards, byASN[asn])
		for _, i := range byASN[asn] {
			p.shardOf[i] = sid
		}
	}
	for i, sp := range e.sp {
		for _, peer := range sp.peers { // sessions only form toward speakers
			if j := peer.idx; j < i && p.shardOf[j] != p.shardOf[i] {
				p.deps[i] = append(p.deps[i], j)
			}
		}
		sort.Ints(p.deps[i])
	}
	e.plan = p
	return p
}

// SetShards sets the worker count for sharded round evaluation. n <= 1
// keeps the sequential sweep (the default, and the parity baseline); n > 1
// evaluates the per-AS shards concurrently on up to n workers. Results are
// byte-identical at any value. Sharding only applies in sequential
// (Gauss–Seidel) mode; synchronous rounds are already whole-table
// exchanges.
func (e *BGPEngine) SetShards(n int) { e.shardWorkers = n }

// ShardCount returns the number of structural shards — distinct ASNs among
// the speakers. It is a property of the topology, independent of the
// SetShards knob.
func (e *BGPEngine) ShardCount() int {
	return len(e.shardPlan().shards)
}

// ShardStats reports the sharded-evaluation work of the most recent run:
// rounds evaluated by the parallel driver and advertisements that crossed
// a shard boundary (adj-RIB-in changes taken over eBGP sessions, under
// either driver).
func (e *BGPEngine) ShardStats() (parallelRounds, crossShardAdverts int64) {
	return e.statShardRounds, e.statCrossAdverts
}

// ShardLayout returns the structural partition: one Shard per ASN (sorted
// by ASN, speakers in sweep order) plus the cut edges — the unordered
// session pairs that cross shards, sorted. By construction a session is a
// cut edge exactly when it is an eBGP session.
func (e *BGPEngine) ShardLayout() ([]Shard, [][2]string) {
	p := e.shardPlan()
	shards := make([]Shard, len(p.shards))
	for sid, ps := range p.shards {
		names := make([]string, len(ps))
		for k, i := range ps {
			names[k] = e.sp[i].host
		}
		shards[sid] = Shard{ASN: e.sp[ps[0]].asn, Speakers: names}
	}
	cutSet := map[[2]string]bool{}
	for i, sp := range e.sp {
		host := sp.host
		for _, s := range sp.sessions {
			if p.shardOf[e.speakers[s.peerHost].idx] != p.shardOf[i] {
				pair := [2]string{host, s.peerHost}
				if pair[1] < pair[0] {
					pair[0], pair[1] = pair[1], pair[0]
				}
				cutSet[pair] = true
			}
		}
	}
	cuts := make([][2]string, 0, len(cutSet))
	for pair := range cutSet {
		cuts = append(cuts, pair)
	}
	sort.Slice(cuts, func(i, j int) bool {
		if cuts[i][0] != cuts[j][0] {
			return cuts[i][0] < cuts[j][0]
		}
		return cuts[i][1] < cuts[j][1]
	})
	return shards, cuts
}

// perturbCapturer is the optional Perturber extension the sharded driver
// needs: event lines produced during out-of-order shard evaluation are
// captured per delivery and restaged in canonical order at the merge
// barrier. ScheduledPerturber implements it; a Perturber that does not is
// evaluated sequentially (its event log would otherwise depend on shard
// interleaving).
type perturbCapturer interface {
	Perturber
	setCapture(buf *[]string)
	restageEvents(lines []string)
}

// useSharded reports whether the next sequential round should run the
// parallel driver.
func (e *BGPEngine) useSharded() bool {
	if e.shardWorkers <= 1 {
		return false
	}
	if e.pert != nil {
		if _, ok := e.pert.(perturbCapturer); !ok {
			return false
		}
	}
	return len(e.shardPlan().shards) > 1
}

// shardRun is one round's wavefront scheduler state. Speakers write only
// their own turnResult slot and lists, so those need no locking; the
// scheduler mutex orders all cross-shard hand-offs.
type shardRun struct {
	e    *BGPEngine
	plan *shardPlan

	mu        sync.Mutex
	done      []bool
	cursor    []int         // per shard: position in the shard
	waiters   map[int][]int // speaker index -> shard ids parked on it
	ready     chan int
	remaining int
}

// runSharded has every speaker take its turn for the round, shards
// concurrently. The caller applies the slots afterwards — the merge
// barrier. See the comment at the top of this file for the identity
// argument.
func (e *BGPEngine) runSharded() {
	plan := e.shardPlan()
	r := &shardRun{
		e: e, plan: plan,
		done:    make([]bool, len(e.sp)),
		cursor:  make([]int, len(plan.shards)),
		waiters: map[int][]int{},
		// Sized to the number of sends in flight: a shard is queued at most
		// once.
		ready:     make(chan int, len(plan.shards)),
		remaining: len(plan.shards),
	}
	for sid := range plan.shards {
		r.ready <- sid
	}
	workers := e.shardWorkers
	if workers > len(plan.shards) {
		workers = len(plan.shards)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			for sid := range r.ready {
				if r.runShard(sid, &sc) {
					r.finishShard()
				}
			}
		}()
	}
	wg.Wait()
}

// finishShard retires a completed shard, closing the ready queue when the
// last one finishes so the workers drain and exit.
func (r *shardRun) finishShard() {
	r.mu.Lock()
	r.remaining--
	if r.remaining == 0 {
		close(r.ready)
	}
	r.mu.Unlock()
}

// runShard advances one shard's cursor until the shard completes (true) or
// parks on an unmet cross-shard dependency (false; the dependency's
// completion re-enqueues it). Parking and completion-marking share r.mu,
// so a wakeup cannot be lost between the dependency check and the park.
func (r *shardRun) runShard(sid int, sc *scratch) bool {
	sh := r.plan.shards[sid]
	for {
		r.mu.Lock()
		if r.cursor[sid] >= len(sh) {
			r.mu.Unlock()
			return true
		}
		i := sh[r.cursor[sid]]
		blocked := -1
		for _, j := range r.plan.deps[i] {
			if !r.done[j] {
				blocked = j
				break
			}
		}
		if blocked >= 0 {
			r.waiters[blocked] = append(r.waiters[blocked], sid)
			r.mu.Unlock()
			return false
		}
		r.mu.Unlock()
		r.e.turn(r.e.sp[i], &r.e.slots[i], sc)
		r.mu.Lock()
		r.done[i] = true
		r.cursor[sid]++
		woken := r.waiters[i]
		delete(r.waiters, i)
		r.mu.Unlock()
		// Re-enqueue outside the lock; the buffer holds every shard, and a
		// shard is queued at most once, so this never blocks. The queue
		// cannot have closed: this shard has not called finishShard yet, so
		// remaining >= 1.
		for _, w := range woken {
			r.ready <- w
		}
	}
}
