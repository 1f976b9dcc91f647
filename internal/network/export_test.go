package network

import "fmt"

// PortCensus counts where a quiescent fabric's packet records are.
type PortCensus struct {
	Queued, InFlight, Parked, Free int
}

// CheckPortInvariants verifies the port-state layout of a quiescent
// network: every port's queued equals the sum of its VC bytes, each VC's
// bytes the sum of its list, nonEmpty bit vc is set exactly when VC vc has
// a head, every list ends at its tail (tail.qnext == nil), parkedN counts
// the parked deliveries, each freelist holds as many records as it counts,
// and no record sits in two places — two queues, a queue and a freelist,
// or either and a port's in-flight or parked slot.
func CheckPortInvariants(n *Network) (PortCensus, error) {
	var c PortCensus
	where := make(map[*Packet]string)
	claim := func(p *Packet, at string) error {
		if prev, ok := where[p]; ok {
			return fmt.Errorf("packet record %p is in %s and in %s", p, prev, at)
		}
		where[p] = at
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
			k++
		}
		if k != sh.pktFreeN {
			return c, fmt.Errorf("shard %d's freelist holds %d records, counts %d", i, k, sh.pktFreeN)
		}
		c.Free += k
	}
	return c, nil
}

func (o *outPort) checkInvariants(c *PortCensus, claim func(*Packet, string) error) error {
	name := fmt.Sprintf("port r%d.p%d", o.router, o.port)
	if len(o.vcs) != o.sh.net.numVC {
		return fmt.Errorf("%s has %d VCs, the network %d", name, len(o.vcs), o.sh.net.numVC)
	}
	total := 0
	for vc := range o.vcs {
		q := &o.vcs[vc]
		at := fmt.Sprintf("%s vc%d", name, vc)
		if (q.head == nil) != (q.tail == nil) {
			return fmt.Errorf("%s: head %p, tail %p", at, q.head, q.tail)
		}
		if set := o.nonEmpty&(1<<uint(vc)) != 0; set != (q.head != nil) {
			return fmt.Errorf("%s: nonEmpty bit %v with head %p", at, set, q.head)
		}
		bytes := 0
		var last *Packet
		for p := q.head; p != nil; p = p.qnext {
			if err := claim(p, at); err != nil {
				return err
			}
			bytes += p.SizeBytes
			last = p
			c.Queued++
		}
		if last != q.tail {
			return fmt.Errorf("%s: the list ends at %p, tail is %p", at, last, q.tail)
		}
		if bytes != q.bytes {
			return fmt.Errorf("%s: holds %d bytes, counts %d", at, bytes, q.bytes)
		}
		total += bytes
	}
	if total != o.queued {
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
	parked := 0
	if o.cold != nil {
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
	if parked != int(o.parkedN) {
		return fmt.Errorf("%s: %d parked deliveries, parkedN %d", name, parked, o.parkedN)
	}
	c.Parked += parked
	return nil
}
