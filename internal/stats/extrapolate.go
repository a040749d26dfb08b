package stats

// Closed-form counter advance for the event-driven fast path. When the
// stepper proves a span of cycles is inert (no component can change state),
// it ticks the first cycle of the span for real — measuring the constant
// per-cycle counter delta, e.g. an sfence's SfenceWait — and applies that
// delta to the remaining span in one multiply-add instead of re-simulating
// identical cycles.
//
// Both methods must cover every field of their struct; a reflection test
// (TestAddScaledDiffCoversAllFields) fails the build-out if a new counter
// is added without extending them.

// AddScaledDiff adds k copies of the delta (c - before) to c, field by
// field. before is the snapshot taken just before the measured cycle.
func (c *Core) AddScaledDiff(before *Core, k uint64) {
	c.Cycles += (c.Cycles - before.Cycles) * k
	c.Retired += (c.Retired - before.Retired) * k
	for i := range c.StallCycles {
		c.StallCycles[i] += (c.StallCycles[i] - before.StallCycles[i]) * k
	}
	c.LoadHitsL1 += (c.LoadHitsL1 - before.LoadHitsL1) * k
	c.LoadHitsL2 += (c.LoadHitsL2 - before.LoadHitsL2) * k
	c.LoadHitsL3 += (c.LoadHitsL3 - before.LoadHitsL3) * k
	c.LoadMisses += (c.LoadMisses - before.LoadMisses) * k
	c.Stores += (c.Stores - before.Stores) * k
	c.Clwbs += (c.Clwbs - before.Clwbs) * k
	c.Sfences += (c.Sfences - before.Sfences) * k
	c.TxCommitted += (c.TxCommitted - before.TxCommitted) * k
	c.LogLoads += (c.LogLoads - before.LogLoads) * k
	c.LogFlushes += (c.LogFlushes - before.LogFlushes) * k
	c.LLTHits += (c.LLTHits - before.LLTHits) * k
	c.LLTMisses += (c.LLTMisses - before.LLTMisses) * k
	c.LogOverflow += (c.LogOverflow - before.LogOverflow) * k
	c.ATOMLogDelays += (c.ATOMLogDelays - before.ATOMLogDelays) * k
	c.SfenceWait += (c.SfenceWait - before.SfenceWait) * k
	c.PcommitWait += (c.PcommitWait - before.PcommitWait) * k
	c.SBWPQBlocked += (c.SBWPQBlocked - before.SBWPQBlocked) * k
	c.TxEndWait += (c.TxEndWait - before.TxEndWait) * k
}

// AddScaledDiff adds k copies of the delta (m - before) to m.
func (m *Mem) AddScaledDiff(before *Mem, k uint64) {
	m.Reads += (m.Reads - before.Reads) * k
	for i := range m.Writes {
		m.Writes[i] += (m.Writes[i] - before.Writes[i]) * k
	}
	m.WPQCoalesced += (m.WPQCoalesced - before.WPQCoalesced) * k
	m.LPQAccepted += (m.LPQAccepted - before.LPQAccepted) * k
	m.LPQDropped += (m.LPQDropped - before.LPQDropped) * k
	m.LPQDrained += (m.LPQDrained - before.LPQDrained) * k
	m.RowBufferHits += (m.RowBufferHits - before.RowBufferHits) * k
	m.RowBufferMiss += (m.RowBufferMiss - before.RowBufferMiss) * k
	m.ReadQFullStall += (m.ReadQFullStall - before.ReadQFullStall) * k
	m.WPQFullStall += (m.WPQFullStall - before.WPQFullStall) * k
	m.WPQResidency += (m.WPQResidency - before.WPQResidency) * k
	m.WPQDrained += (m.WPQDrained - before.WPQDrained) * k
	m.WPQIssueDelay += (m.WPQIssueDelay - before.WPQIssueDelay) * k
	m.WPQService += (m.WPQService - before.WPQService) * k
	m.ReadLatency += (m.ReadLatency - before.ReadLatency) * k
	m.ReadsServed += (m.ReadsServed - before.ReadsServed) * k
	m.WPQForwards += (m.WPQForwards - before.WPQForwards) * k
	m.BankBusy += (m.BankBusy - before.BankBusy) * k
}
