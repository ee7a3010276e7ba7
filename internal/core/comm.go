package core

import (
	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// Service names used by the DSM communication module. The module provides
// the paper's "limited set of communication routines": sending a page
// request, sending a page, invalidating a page, sending diffs. Everything
// is carried by PM2's RPC mechanism.
const (
	svcRequest = "dsm.request"
	svcPage    = "dsm.page"
	svcInvald  = "dsm.invalidate"
	svcDiff    = "dsm.diff"
	svcLockAcq = "dsm.lock.acquire"
	svcLockRel = "dsm.lock.release"
	svcBarrier = "dsm.barrier"
)

// ctrlBytes is the wire size of a control message.
const ctrlBytes = 64

// reqMsg asks the destination for page access. seq is the requesting
// entry's request sequence number, echoed back with the page so retried
// fetches can discard their predecessors' late responses (recovery mode).
type reqMsg struct {
	page   Page
	from   int // requesting node
	write  bool
	seq    uint64
	timing *FaultTiming
	sentAt sim.Time
}

// pageMsg carries a page copy to a requester.
type pageMsg struct {
	page    Page
	from    int
	data    []byte
	access  memory.Access
	owner   int
	ownship bool
	copyset []int
	seq     uint64 // request sequence this page answers (see reqMsg)
	timing  *FaultTiming
	sentAt  sim.Time
	link    string // profile name of the link carrying the transfer
}

// invMsg asks the destination to invalidate its copy of a page.
type invMsg struct {
	page     Page
	from     int
	newOwner int
	ack      *sim.Chan // nil for unacknowledged invalidations
}

// invAck is the payload of an invalidation acknowledgement: which node
// applied which page's invalidation. Carrying the page matters when one ack
// channel covers several pages (a multi-page flush): a duplicate ack for an
// already-applied page must not stand in for a different, still-unapplied
// one.
type invAck struct {
	node int
	page Page
}

// diffMsgWire carries diffs to a home node. noticed marks diffs whose
// invalidations ride the writer's barrier notices instead of being applied
// eagerly by the home (see DiffMsg.Noticed).
type diffMsgWire struct {
	from    int
	diffs   []*memory.Diff
	noticed bool
	reply   *sim.Chan // signalled once applied, nil for fire-and-forget
}

// registerServices wires the DSM communication module onto every node.
// Request, invalidation and diff servers are threaded so that concurrent
// requests — for the same page or different pages — are processed in
// parallel, the multithreaded behaviour Section 3 calls out; page
// installation is a quick handler, serialized per node like a softirq.
func (d *DSM) registerServices() {
	for i := 0; i < d.rt.Nodes(); i++ {
		node := d.rt.Node(i)

		node.Register(svcRequest, true, func(h *pm2.Thread, arg interface{}) interface{} {
			m := arg.(*reqMsg)
			if d.recovery != nil && d.NodeDead(m.from) {
				// A dead requester must not be granted anything — a write
				// request served now would strand ownership on a corpse.
				return nil
			}
			if m.timing != nil {
				m.timing.Request = h.Now().Sub(m.sentAt)
			}
			r := &Request{
				DSM:    d,
				Thread: h,
				Node:   h.Node(),
				Page:   m.page,
				From:   m.from,
				Write:  m.write,
				Seq:    m.seq,
				Timing: m.timing,
			}
			p := d.protoAt(h.Node(), m.page)
			if m.write {
				p.WriteServer(r)
			} else {
				p.ReadServer(r)
			}
			return nil
		})

		node.Register(svcPage, false, func(h *pm2.Thread, arg interface{}) interface{} {
			m := arg.(*pageMsg)
			if m.timing != nil {
				m.timing.Transfer = h.Now().Sub(m.sentAt)
				m.timing.Link = m.link
			}
			pm := &PageMsg{
				DSM:     d,
				Thread:  h,
				Node:    h.Node(),
				Page:    m.page,
				From:    m.from,
				Data:    m.data,
				Access:  m.access,
				Owner:   m.owner,
				Ownship: m.ownship,
				Copyset: m.copyset,
				Seq:     m.seq,
				Timing:  m.timing,
			}
			d.protoAt(h.Node(), m.page).ReceivePageServer(pm)
			return nil
		})

		node.Register(svcInvald, true, func(h *pm2.Thread, arg interface{}) interface{} {
			m := arg.(*invMsg)
			if d.recovery != nil && d.NodeDead(m.from) {
				// An invalidation from a node that has since crashed speaks
				// for a dead regime: the recovery sweep already rebuilt the
				// page's home/copyset around the crash, and applying the
				// stale order could drop the promoted home's reference
				// copy. Any copy it meant to kill is in the new home's
				// copyset and dies at the next release instead.
				return nil
			}
			// Any invalidation supersedes a page copy still in flight
			// to this node (see Entry.InvalSeq).
			d.Entry(h.Node(), m.page).InvalSeq++
			iv := &Invalidate{
				DSM:      d,
				Thread:   h,
				Node:     h.Node(),
				Page:     m.page,
				From:     m.from,
				NewOwner: m.newOwner,
			}
			d.protoAt(h.Node(), m.page).InvalidateServer(iv)
			if m.ack != nil {
				// The ack names the acknowledging node and page, so a
				// recovery retry loop can tick off exactly which holders
				// answered for exactly which invalidations.
				d.rt.Network().SendDirect(h.Node(), m.from, m.ack, ctrlBytes,
					invAck{node: h.Node(), page: m.page}, d.rt.Link(h.Node(), m.from).CtrlMsg)
			}
			return nil
		})

		node.Register(svcDiff, true, func(h *pm2.Thread, arg interface{}) interface{} {
			m := arg.(*diffMsgWire)
			if len(m.diffs) > 0 {
				ds, ok := d.protoAt(h.Node(), m.diffs[0].Page).(DiffServer)
				if !ok {
					panic("core: diffs sent to a protocol without a DiffServer")
				}
				ds.DiffServer(&DiffMsg{
					DSM:     d,
					Thread:  h,
					Node:    h.Node(),
					From:    m.from,
					Diffs:   m.diffs,
					Noticed: m.noticed,
					reply:   m.reply,
				})
			}
			if m.reply != nil {
				d.rt.Network().SendDirect(h.Node(), m.from, m.reply, ctrlBytes, nil, d.rt.Link(h.Node(), m.from).CtrlMsg)
			}
			return nil
		})
	}
	d.registerSyncServices()
}

// sendRequest delivers a page request to dest (a control message).
func (d *DSM) sendRequest(from, dest int, m *reqMsg) {
	m.sentAt = d.rt.Engine().Now()
	st := &d.stats
	st.Requests++
	st.Sends++
	st.Envelopes++
	d.rt.AsyncFrom(from, dest, svcRequest, m, ctrlBytes)
}

// sendPage delivers a page copy to dest as a bulk transfer. The message
// header travels inside the transfer's fixed base cost, so the charged
// payload is exactly the page, as in the paper's Table 3 measurements. The
// carrying link's profile name is recorded for FaultTiming attribution, so
// reports can split fault costs by link class (intra- vs inter-cluster).
func (d *DSM) sendPage(from, dest int, m *pageMsg) {
	m.sentAt = d.rt.Engine().Now()
	m.link = d.rt.Link(from, dest).Name
	st := &d.stats
	st.PageSends++
	st.PageBytes += int64(len(m.data))
	st.Sends++
	st.Envelopes++
	d.rt.AsyncFrom(from, dest, svcPage, m, len(m.data))
}

// sendInvalidate delivers an invalidation to dest as its own envelope (the
// unbatched path; batched flushes coalesce invalidations in outbox.go).
func (d *DSM) sendInvalidate(from, dest int, m *invMsg) {
	st := &d.stats
	st.Invalidations++
	st.Sends++
	st.Envelopes++
	d.rt.AsyncFrom(from, dest, svcInvald, m, ctrlBytes)
}

// diffFlight is one in-flight diff envelope: the send half of sendDiffs,
// split from the wait half so flushes to distinct destinations overlap their
// round trips (every envelope departs before the first reply is awaited).
type diffFlight struct {
	dest int
	m    *diffMsgWire
	size int
}

// startDiffs ships a diff list to dest as its own envelope and returns the
// flight to pass to waitDiffs. With wait false the flight needs no waiting
// (fire-and-forget).
func (d *DSM) startDiffs(t *pm2.Thread, dest int, diffs []*memory.Diff, noticed, wait bool) *diffFlight {
	size := ctrlBytes
	for _, df := range diffs {
		size += df.Size()
	}
	m := &diffMsgWire{from: t.Node(), diffs: diffs, noticed: noticed}
	st := &d.stats
	st.DiffsSent += int64(len(diffs))
	st.DiffBytes += int64(size)
	st.Sends++
	st.Envelopes++
	if wait {
		m.reply = new(sim.Chan)
	}
	d.rt.AsyncFrom(t.Node(), dest, svcDiff, m, size)
	return &diffFlight{dest: dest, m: m, size: size}
}

// waitDiffs blocks until a flight's destination acknowledged applying it
// (release semantics demand it).
//
// With recovery enabled the wait is bounded: if the home dies before
// acknowledging, each diff is re-routed to its page's current home (the
// recovery sweep re-homed the dead node's pages), applied locally when this
// node became the home. Diffs are absolute byte ranges, so a diff the dead
// home did manage to apply before crashing re-applies idempotently.
func (d *DSM) waitDiffs(t *pm2.Thread, f *diffFlight) {
	if f.m.reply == nil {
		return
	}
	if d.recovery == nil {
		f.m.reply.Recv(t.Proc())
		return
	}
	attempt := 0
	for {
		if _, ok := f.m.reply.RecvTimeout(t.Proc(), d.recovery.retryDelay(attempt)); ok {
			return
		}
		attempt++
		d.recovery.stats.Retries++
		if !d.NodeDead(f.dest) {
			// The home is alive but silent: the diff or its ack may have
			// been lost on a lossy link, or is crawling through a
			// partition. Re-send — diffs apply idempotently, and a
			// duplicate ack just lingers unread in this call's private
			// reply channel. Counted like any other shipment, mirroring
			// the batched retry path's accounting.
			st := &d.stats
			st.DiffsSent += int64(len(f.m.diffs))
			st.Sends++
			st.Envelopes++
			d.rt.AsyncFrom(t.Node(), f.dest, svcDiff, f.m, f.size)
			continue
		}
		// The home died with our diffs unacknowledged: re-route each diff
		// to its page's current home.
		d.rerouteDiffs(t, f.m.diffs)
		return
	}
}

// rerouteDiffs delivers each diff to its page's current home after the
// original destination died. When this node *became* the home, the diff goes
// through the protocol's own DiffServer so its commit side effects
// (applying, then invalidating third-party copies) happen exactly as they
// would have at the old home.
func (d *DSM) rerouteDiffs(t *pm2.Thread, diffs []*memory.Diff) {
	for _, df := range diffs {
		pi, _ := d.dir[df.Page]
		home := pi.home
		if home == t.Node() {
			if ds, ok := d.protoFor(df.Page).(DiffServer); ok {
				ds.DiffServer(&DiffMsg{
					DSM: d, Thread: t, Node: t.Node(), From: t.Node(),
					Diffs: []*memory.Diff{df},
				})
				continue
			}
			e := d.Entry(t.Node(), df.Page)
			e.Lock(t)
			if frame := d.state[t.Node()].space.Frame(df.Page); frame != nil {
				memory.ApplyDiff(frame.Data, df)
			}
			e.Unlock(t)
			continue
		}
		d.sendDiffs(t, home, []*memory.Diff{df}, true)
	}
}

// sendDiffs delivers a batch of diffs to dest and, if wait is true, blocks
// the calling thread until the destination has applied them.
func (d *DSM) sendDiffs(t *pm2.Thread, dest int, diffs []*memory.Diff, wait bool) {
	d.waitDiffs(t, d.startDiffs(t, dest, diffs, false, wait))
}
