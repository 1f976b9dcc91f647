package network

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

	"prdrb/internal/sim"
)

// PortCensus counts where a quiescent fabric's packet records are, how
// many of them hold a cold record and how many contending-set storage.
type PortCensus struct {
	Queued, InFlight, Parked, Free int
	Colds, Headers                 int
}

// CheckPortInvariants verifies the port-state layout of a quiescent
// network: every port's queued equals the sum of its VC bytes, each VC's
// byte count read through its packets' stamps (vcQueue.bytes) the sum of
// its list, nonEmpty bit vc is set exactly when VC vc has a tail, the
// queues past Network.numVC have no tail and no nonEmpty bit, every
// list is circular — the walk from the head, tail.qnext, reaches the tail
// (a walk that loops short of it meets a packet twice) —
// parkedN counts the parked deliveries, each freelist holds as many
// records as it counts, no record sits in two places — two queues, a
// queue and a freelist, or either and a port's in-flight or parked slot —
// no two records share a cold record or contending storage, and every free
// record's cold record is empty: no predictive header, integrals zero.
func CheckPortInvariants(n *Network) (PortCensus, error) {
	var c PortCensus
	where := make(map[*Packet]string)
	type span struct {
		lo, hi uintptr
		p      *Packet
	}
	var headers []span
	colds := make(map[*packetCold]*Packet)
	claim := func(p *Packet, at string) error {
		if prev, ok := where[p]; ok {
			return fmt.Errorf("packet record %p is in %s and in %s", p, prev, at)
		}
		where[p] = at
		pc := p.cold
		if pc == nil {
			return nil
		}
		if q, ok := colds[pc]; ok {
			return fmt.Errorf("packet records in %s and in %s share a cold record", where[q], at)
		}
		colds[pc] = p
		if k := cap(pc.contending); k > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(pc.contending)))
			headers = append(headers, span{lo, lo + uintptr(k)*unsafe.Sizeof(FlowKey{}), p})
		}
		return nil
	}
	var err error
	n.eachPort(func(o *outPort) {
		if err == nil {
			err = o.checkInvariants(&c, claim)
		}
	})
	if err != nil {
		return c, err
	}
	for i, sh := range n.Shards {
		k := 0
		for p := sh.pktFree; p != nil; p = p.qnext {
			if err := claim(p, fmt.Sprintf("shard %d's freelist", i)); err != nil {
				return c, err
			}
			if pc := p.cold; pc != nil && (pc.reportRouter != 0 || len(pc.contending) != 0 || pc.queueNs != 0 || pc.serNs != 0) {
				return c, fmt.Errorf("a record in shard %d's freelist keeps a used cold record %+v", i, *pc)
			}
			k++
		}
		if k != sh.pktFreeN {
			return c, fmt.Errorf("shard %d's freelist holds %d records, counts %d", i, k, sh.pktFreeN)
		}
		c.Free += k
	}
	slices.SortFunc(headers, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(headers); i++ {
		if a, b := headers[i-1], headers[i]; b.lo < a.hi {
			return c, fmt.Errorf("packet records in %s and in %s share Contending storage", where[a.p], where[b.p])
		}
	}
	c.Colds, c.Headers = len(colds), len(headers)
	return c, nil
}

func (o *outPort) checkInvariants(c *PortCensus, claim func(*Packet, string) error) error {
	name := fmt.Sprintf("port r%d.p%d", o.router, o.port)
	numVC := o.sh.net.numVC
	for vc := numVC; vc < maxVCs; vc++ {
		if q := &o.vcs[vc]; q.tail != nil || o.nonEmpty&(1<<uint(vc)) != 0 {
			return fmt.Errorf("%s vc%d: past the fabric's %d VCs, tail %p and nonEmpty %08b", name, vc, numVC, q.tail, o.nonEmpty)
		}
	}
	total := 0
	for vc := range numVC {
		q := &o.vcs[vc]
		at := fmt.Sprintf("%s vc%d", name, vc)
		if set := o.nonEmpty&(1<<uint(vc)) != 0; set != (q.tail != nil) {
			return fmt.Errorf("%s: nonEmpty bit %v with tail %p", at, set, q.tail)
		}
		bytes := 0
		for p := q.head(); p != nil; p = q.next(p) {
			if p.qnext == nil {
				return fmt.Errorf("%s: the list breaks off after %p, before the tail %p", at, p, q.tail)
			}
			if err := claim(p, at); err != nil {
				return err
			}
			bytes += p.SizeBytes
			c.Queued++
		}
		if bytes != q.bytes() {
			return fmt.Errorf("%s: holds %d bytes, counts %d", at, bytes, q.bytes())
		}
		total += bytes
	}
	if total != int(o.queued) {
		return fmt.Errorf("%s: VCs hold %d bytes, queued says %d", name, total, o.queued)
	}
	if p := o.inflight; p != nil {
		if p.qnext != nil {
			return fmt.Errorf("%s: the in-flight packet is linked to %p", name, p.qnext)
		}
		if err := claim(p, name+" in flight"); err != nil {
			return err
		}
		c.InFlight++
	}
	parked, parkedN := 0, 0
	if o.cold != nil {
		parkedN = o.cold.parkedN
		for vc, pds := range o.cold.parked {
			for _, pd := range pds {
				if pd.pkt.qnext != nil {
					return fmt.Errorf("%s vc%d: a parked packet is linked to %p", name, vc, pd.pkt.qnext)
				}
				if err := claim(pd.pkt, fmt.Sprintf("%s vc%d parked", name, vc)); err != nil {
					return err
				}
				parked++
			}
		}
	}
	if parked != parkedN {
		return fmt.Errorf("%s: %d parked deliveries, parkedN %d", name, parked, parkedN)
	}
	c.Parked += parked
	return nil
}

// busy and lazyFree read the port's transmission flags.
func (o *outPort) busy() bool     { return o.flags&portBusy != 0 }
func (o *outPort) lazyFree() bool { return o.flags&portLazyFree != 0 }

// TapArrivals wraps every link into a terminal so arrive observes each data
// packet as it reaches its NIC, before reassembly. arrive runs on the NIC's
// shard.
func TapArrivals(n *Network, arrive func(pkt *Packet)) {
	for ri := range n.Routers {
		for p := range n.Routers[ri].out {
			o := &n.Routers[ri].out[p]
			if nic, ok := o.peer.(*NIC); ok {
				o.peer = arrivalTap{nic, arrive}
			}
		}
	}
}

type arrivalTap struct {
	nic    *NIC
	arrive func(pkt *Packet)
}

func (a arrivalTap) accept(e *sim.Engine, pkt *Packet, o *outPort, vc int) bool {
	if pkt.Type == DataPacket {
		a.arrive(pkt)
	}
	return a.nic.accept(e, pkt, o, vc)
}
