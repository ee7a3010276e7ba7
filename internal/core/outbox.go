package core

import (
	"bytes"
	"sort"

	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// This file is the batched half of the DSM communication module: a
// per-release outbox (Batch) that coalesces the invalidations and diffs a
// critical section accumulated into ONE multi-part envelope per destination,
// plus the write-notice machinery that lets barriers carry invalidation
// information for free.
//
// Determinism contract: a Batch flushes in canonical order — destinations
// ascending, and within each destination invalidations then diffs, each
// sorted by page — so the wire trace (and therefore the TimingLog) is
// independent of the order operations were queued in. Shuffling insertion
// order must not move a single virtual timestamp; a property test pins this.

// noticeBytes is the wire size charged per write notice piggybacked on a
// barrier message.
const noticeBytes = 16

// WriteNotice records that Writer committed modifications to Page during the
// synchronization epoch ending at a barrier. The barrier aggregates every
// participant's notices and hands the union back with the release, so
// holders of stale copies self-invalidate without any dedicated
// invalidation round trip.
type WriteNotice struct {
	Page   Page
	Writer int
}

// invOp is one queued invalidation: the page plus the new-owner hint.
type invOp struct {
	page     Page
	newOwner int
}

// destBatch accumulates the operations bound for one destination.
type destBatch struct {
	invs  []invOp
	diffs []*memory.Diff
	// noticed marks diffs whose invalidations are deferred to barrier write
	// notices (one flag per diffs element, parallel slice).
	noticed []bool
}

// Batch is a per-destination outbox: protocols queue the invalidations and
// diffs of one release into it, then Flush ships one envelope per
// destination and waits once for all of them. With batching disabled the
// same Flush reproduces the historical one-envelope-per-operation pattern
// (still overlapping the waits), keeping the unbatched path selectable for
// A/B comparison.
type Batch struct {
	d     *DSM
	t     *pm2.Thread
	node  int
	dests map[int]*destBatch
}

// NewBatch opens an outbox for operations sent on behalf of t's node.
func (d *DSM) NewBatch(t *pm2.Thread) *Batch {
	return &Batch{d: d, t: t, node: t.Node(), dests: make(map[int]*destBatch)}
}

func (b *Batch) dest(n int) *destBatch {
	db := b.dests[n]
	if db == nil {
		db = &destBatch{}
		b.dests[n] = db
	}
	return db
}

// Invalidate queues an invalidation of pg at dest. Self-invalidations are
// dropped (the caller owns its local state).
func (b *Batch) Invalidate(dest int, pg Page, newOwner int) {
	if dest == b.node {
		return
	}
	db := b.dest(dest)
	db.invs = append(db.invs, invOp{page: pg, newOwner: newOwner})
}

// Diff queues a diff for delivery to dest (the page's home). noticed defers
// the home's eager third-party invalidation to the sender's barrier write
// notices.
func (b *Batch) Diff(dest int, diff *memory.Diff, noticed bool) {
	b.d.profDiff(b.node, diff.Page)
	db := b.dest(dest)
	db.diffs = append(db.diffs, diff)
	db.noticed = append(db.noticed, noticed)
}

// Empty reports whether the outbox holds no operations.
func (b *Batch) Empty() bool { return len(b.dests) == 0 }

// canonicalize sorts one destination's operations into flush order:
// invalidations by (page, newOwner), diffs by page with a content tiebreak.
// Queued order is deliberately forgotten — determinism must not depend on
// it, even for the odd caller that queues two diffs of one page to one
// destination (SendDiffsBatched iterates a map).
//
// Invalidations are also deduplicated per page (the last entry in canonical
// order — the highest owner hint — wins). One destination needs one
// invalidation of a page per flush no matter how many times it was queued;
// the unbatched path has always collapsed duplicates through its
// per-(node, page) ack bookkeeping, and deduplicating here keeps the two
// paths' Invalidations/InvAcks accounting identical.
func (db *destBatch) canonicalize() {
	sort.SliceStable(db.invs, func(i, j int) bool {
		if db.invs[i].page != db.invs[j].page {
			return db.invs[i].page < db.invs[j].page
		}
		return db.invs[i].newOwner < db.invs[j].newOwner
	})
	dedup := db.invs[:0]
	for i, iv := range db.invs {
		if i+1 < len(db.invs) && db.invs[i+1].page == iv.page {
			continue
		}
		dedup = append(dedup, iv)
	}
	db.invs = dedup
	// Sort the diffs and their noticed flags together.
	idx := make([]int, len(db.diffs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return diffLess(db.diffs[idx[i]], db.diffs[idx[j]])
	})
	diffs := make([]*memory.Diff, len(idx))
	noticed := make([]bool, len(idx))
	for i, k := range idx {
		diffs[i] = db.diffs[k]
		noticed[i] = db.noticed[k]
	}
	db.diffs = diffs
	db.noticed = noticed
}

// diffLess is the canonical total order on diffs: page, then entry list
// (offset, then bytes, lexicographically). Identical diffs compare equal,
// which a stable sort keeps stable — so the order never depends on how the
// caller happened to queue them.
func diffLess(a, b *memory.Diff) bool {
	if a.Page != b.Page {
		return a.Page < b.Page
	}
	for i := 0; i < len(a.Entries) && i < len(b.Entries); i++ {
		ea, eb := a.Entries[i], b.Entries[i]
		if ea.Off != eb.Off {
			return ea.Off < eb.Off
		}
		if c := bytes.Compare(ea.Data, eb.Data); c != 0 {
			return c < 0
		}
	}
	return len(a.Entries) < len(b.Entries)
}

// batchFlight is one awaited destination envelope of a batched flush.
type batchFlight struct {
	dest  int
	elems []pm2.VecElem
	diffs []*memory.Diff
	acks  int // invalidations whose acknowledgement the reply coalesces
	reply *sim.Chan
}

// Flush ships the outbox: destinations ascending, one envelope each. With
// wait true it blocks until every destination completed all of its
// operations — all envelopes depart before the first reply is awaited, so
// flushes to distinct destinations overlap instead of serializing. The
// outbox is empty afterwards and may be reused.
func (b *Batch) Flush(wait bool) {
	if len(b.dests) == 0 {
		return
	}
	d := b.d
	order := make([]int, 0, len(b.dests))
	for n := range b.dests {
		order = append(order, n)
	}
	sort.Ints(order)
	if !d.batch {
		b.flushUnbatched(order, wait)
		b.dests = make(map[int]*destBatch)
		return
	}
	flights := make([]*batchFlight, 0, len(order))
	for _, dest := range order {
		db := b.dests[dest]
		db.canonicalize() // before any send OR reroute: order must never depend on insertion
		if d.recovery != nil && d.NodeDead(dest) {
			// Dead holders need no invalidation; their copies died with
			// them. Diffs still must reach the pages' current homes.
			d.rerouteDiffs(b.t, db.diffs)
			continue
		}
		f := &batchFlight{dest: dest, diffs: db.diffs}
		for _, iv := range db.invs {
			f.elems = append(f.elems, pm2.VecElem{
				Svc:  svcInvald,
				Arg:  &invMsg{page: iv.page, from: b.node, newOwner: iv.newOwner},
				Size: ctrlBytes,
			})
			f.acks++
		}
		for i, df := range db.diffs {
			f.elems = append(f.elems, pm2.VecElem{
				Svc:  svcDiff,
				Arg:  &diffMsgWire{from: b.node, diffs: []*memory.Diff{df}, noticed: db.noticed[i]},
				Size: ctrlBytes + df.Size(),
			})
			d.stats.DiffBytes += int64(ctrlBytes + df.Size())
		}
		st := &d.stats
		st.Invalidations += int64(len(db.invs))
		st.DiffsSent += int64(len(db.diffs))
		st.Sends += int64(len(f.elems))
		st.Envelopes++
		if wait {
			f.reply = d.rt.StartVecFrom(b.node, dest, f.elems, ctrlBytes)
			flights = append(flights, f)
		} else {
			d.rt.AsyncVecFrom(b.node, dest, f.elems)
		}
	}
	b.dests = make(map[int]*destBatch)
	for _, f := range flights {
		b.waitFlight(f)
	}
}

// waitFlight blocks until one destination's envelope is fully processed.
// With recovery enabled the wait is bounded: a silent-but-alive destination
// gets the (idempotent) envelope again; a dead one needs no invalidations
// and has its diffs re-routed to the pages' current homes.
func (b *Batch) waitFlight(f *batchFlight) {
	d, t := b.d, b.t
	if d.recovery == nil {
		f.reply.Recv(t.Proc())
		d.stats.InvAcks += int64(f.acks)
		return
	}
	attempt := 0
	for {
		if _, ok := f.reply.RecvTimeout(t.Proc(), d.recovery.retryDelay(attempt)); ok {
			d.stats.InvAcks += int64(f.acks)
			return
		}
		attempt++
		d.recovery.stats.Retries++
		if !d.NodeDead(f.dest) {
			// Alive but silent: the envelope or its coalesced reply was
			// lost or is crawling through a partition. Re-send the whole
			// envelope — invalidations and diffs apply idempotently, and a
			// late first reply just lingers unread. Counted like any other
			// shipment, mirroring the unbatched retry path's accounting.
			st := &d.stats
			st.Invalidations += int64(f.acks)
			st.DiffsSent += int64(len(f.diffs))
			st.Sends += int64(len(f.elems))
			st.Envelopes++
			f.reply = d.rt.StartVecFrom(b.node, f.dest, f.elems, ctrlBytes)
			continue
		}
		d.rerouteDiffs(t, f.diffs)
		return
	}
}

// flushUnbatched reproduces the pre-batching wire pattern — one envelope per
// invalidation, one diff-list envelope per destination — while still
// overlapping the blocking waits across destinations.
func (b *Batch) flushUnbatched(order []int, wait bool) {
	d, t := b.d, b.t
	ack := new(sim.Chan)
	// outstanding tracks each unacknowledged (node, page) invalidation
	// individually (value: its new-owner hint, for resends): acks name both
	// node and page, so a duplicate ack for an applied page can never stand
	// in for a different, still-unapplied one.
	outstanding := make(map[invAck]int)
	acks := 0
	var diffFlights []*diffFlight
	for _, dest := range order {
		db := b.dests[dest]
		db.canonicalize()
		if d.recovery != nil && d.NodeDead(dest) {
			d.rerouteDiffs(t, db.diffs)
			continue
		}
		for _, iv := range db.invs {
			var ch *sim.Chan
			if wait {
				ch = ack
				key := invAck{node: dest, page: iv.page}
				if _, dup := outstanding[key]; !dup {
					acks++
				}
				outstanding[key] = iv.newOwner
			}
			d.sendInvalidate(b.node, dest, &invMsg{page: iv.page, from: b.node, newOwner: iv.newOwner, ack: ch})
		}
		if len(db.diffs) > 0 {
			diffFlights = append(diffFlights, d.startDiffs(t, dest, db.diffs, false, wait))
		}
	}
	if !wait {
		return
	}
	if d.recovery == nil {
		for i := 0; i < acks; i++ {
			ack.Recv(t.Proc())
			d.stats.InvAcks++
		}
	} else {
		attempt := 0
		for len(outstanding) > 0 {
			v, ok := ack.RecvTimeout(t.Proc(), d.recovery.retryDelay(attempt))
			if ok {
				if a, isAck := v.(invAck); isAck {
					if _, pending := outstanding[a]; pending {
						delete(outstanding, a)
						d.stats.InvAcks++
					}
				}
				continue
			}
			attempt++
			// Timed out: dead destinations need no acks; live ones get
			// their still-outstanding (idempotent) invalidations again.
			keys := make([]invAck, 0, len(outstanding))
			for k := range outstanding {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i].node != keys[j].node {
					return keys[i].node < keys[j].node
				}
				return keys[i].page < keys[j].page
			})
			retried := false
			for _, k := range keys {
				if d.NodeDead(k.node) {
					delete(outstanding, k)
					continue
				}
				if !retried {
					d.recovery.stats.Retries++
					retried = true
				}
				d.sendInvalidate(b.node, k.node, &invMsg{page: k.page, from: b.node, newOwner: outstanding[k], ack: ack})
			}
		}
	}
	for _, f := range diffFlights {
		d.waitDiffs(t, f)
	}
}

// NoticesUsable reports whether a release at this synchronization point may
// defer invalidation to barrier write notices: batching must be on and the
// release must belong to an actual cluster-wide barrier arrival —
// participant count >= node count, under the SPMD convention every workload
// here follows (one barrier participant per node; a barrier whose
// participants cluster on fewer nodes must not rely on notices, since
// uncovered nodes would never apply them). A subset
// barrier's notices would never reach non-participant copy holders, and an
// explicit flush (FlushRelease, id < 0) has no arrival at all — its
// invalidations must complete inside the flush, or a crash between the
// flush-backed checkpoint and the node's next barrier arrival would strand
// the queued notices forever (restart wipes the node's state, the
// checkpoint skips the redo, and third-party copies stay stale for good).
func (d *DSM) NoticesUsable(barrier int) bool {
	if !d.batch || barrier < 0 || barrier >= len(d.barriers) {
		return false
	}
	return d.barriers[barrier].n >= d.rt.Nodes()
}

// QueueWriteNotice records that t's node committed writes to pg during the
// epoch ending at the given barrier; that barrier's arrival piggybacks the
// notice and its release distributes it to every participant. Queue only
// for barriers NoticesUsable approved.
func (d *DSM) QueueWriteNotice(t *pm2.Thread, barrier int, pg Page) {
	ns := d.state[t.Node()]
	if ns.notices == nil {
		ns.notices = make(map[int][]WriteNotice)
	}
	ns.notices[barrier] = append(ns.notices[barrier], WriteNotice{Page: pg, Writer: t.Node()})
	d.stats.Notices++
}

// takeNotices drains the write notices a node queued for one barrier, in
// canonical order (page, then writer), deduplicated.
func (d *DSM) takeNotices(node, barrier int) []WriteNotice {
	ns := d.state[node]
	out := ns.notices[barrier]
	if len(out) == 0 {
		return nil
	}
	delete(ns.notices, barrier)
	return canonicalNotices(out)
}

// canonicalNotices sorts notices by (page, writer) and removes duplicates,
// so the aggregate a barrier distributes is independent of arrival order.
func canonicalNotices(ws []WriteNotice) []WriteNotice {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Page != ws[j].Page {
			return ws[i].Page < ws[j].Page
		}
		return ws[i].Writer < ws[j].Writer
	})
	out := ws[:0]
	for i, w := range ws {
		if i > 0 && w == ws[i-1] {
			continue
		}
		out = append(out, w)
	}
	return out
}

// applyNotices runs on every barrier participant after the barrier
// completed: notices arrive in canonical order, grouped by page here, and
// each group is applied locally (no messages — this is the whole point).
func (d *DSM) applyNotices(t *pm2.Thread, notices []WriteNotice) {
	for i := 0; i < len(notices); {
		j := i
		for j < len(notices) && notices[j].Page == notices[i].Page {
			j++
		}
		d.applyNotice(t, notices[i].Page, notices[i:j])
		i = j
	}
}

// applyNotice applies one page's write notices on t's node:
//
//   - at the page's home, nothing changes: the reference copy is already
//     current, and the copyset deliberately stays as-is. It only ever
//     needs to be a SUPERSET of the actual holders — members that drop
//     their copies at this barrier just become harmless stale entries a
//     later (idempotent) invalidation or notice covers. Pruning here would
//     race with readers that received their grant earlier, refetched, and
//     re-joined the copyset: removing such a reader would strand its live
//     copy outside every future invalidation.
//   - elsewhere, a sole local writer keeps its copy (it is the freshest
//     replica and the home has its diffs); any other node runs the
//     protocol's own InvalidateServer, exactly as an arriving eager
//     invalidation would — so a concurrently dirty twin (another local
//     thread writing inside a critical section) is flushed home, not
//     silently discarded — with InvalSeq bumped first so an install still
//     in flight is retired too.
func (d *DSM) applyNotice(t *pm2.Thread, pg Page, ws []WriteNotice) {
	node := t.Node()
	e := d.Entry(node, pg)
	e.Lock(t)
	if e.Home == node {
		e.Unlock(t)
		return
	}
	if len(ws) == 1 && ws[0].Writer == node {
		e.Unlock(t)
		return
	}
	e.InvalSeq++
	e.Unlock(t)
	d.instance(e.proto).InvalidateServer(&Invalidate{
		DSM: d, Thread: t, Node: node, Page: pg,
		From: ws[0].Writer, NewOwner: -1,
	})
}
