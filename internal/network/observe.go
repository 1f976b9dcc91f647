package network

// Live-status introspection. These accessors aggregate per-shard state
// for the observability plane's sampler; they must only be called where
// the fabric is quiescent — on the engine goroutine in serial mode, or
// inside a ShardGroup barrier hook in sharded mode — never concurrently
// with a running window.

// LinkHealthCounts reports fabric fault state: how many output ports are
// currently down and how many run degraded (rate below nominal). Faults
// are applied to both directions of a link, so one failed bidirectional
// link contributes two to down.
func (n *Network) LinkHealthCounts() (down, degraded int) {
	n.eachPort(func(o *outPort) {
		switch {
		case o.peer == nil:
		case o.isDown():
			down++
		case o.degradedRate() > 0:
			degraded++
		}
	})
	return down, degraded
}

// InFlightPkts counts packet records currently live: issued by any
// shard's pool and not yet released back. Packets that migrate across a
// shard boundary release into the receiving shard's pool, so the sum
// stays exact globally even though per-shard issue/release counts drift.
func (n *Network) InFlightPkts() int64 {
	var v int64
	for _, sh := range n.Shards {
		v += int64(sh.pktIssued) - int64(sh.pktReleased)
	}
	return v
}

// ThroughputTotals sums the collectors' packet accounting across shards.
// All zeros when the network was built without collectors.
func (n *Network) ThroughputTotals() (offered, delivered, dropped int64) {
	for _, sh := range n.Shards {
		if sh.Collector == nil {
			continue
		}
		t := &sh.Collector.Throughput
		offered += t.OfferedPkts
		delivered += t.AcceptedPkts
		dropped += t.DroppedPkts
	}
	return offered, delivered, dropped
}
