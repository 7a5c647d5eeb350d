package mem

// BusConfig describes one shared bus. Timing is expressed in CPU cycles: a
// bus beat moving WidthBytes takes CPUGHz/ClockGHz CPU cycles.
type BusConfig struct {
	Name       string
	WidthBytes int
	ClockGHz   float64
}

// Bus models arbitration, contention, and transfer delay on a shared bus.
// Requests are serialized: a transfer begins no earlier than the completion
// of the previous one, so concurrent misses queue and the queueing delay is
// visible in returned completion times.
type Bus struct {
	cfg              BusConfig
	cpuCyclesPerBeat uint64
	busyUntil        uint64
	stats            BusStats
}

// BusStats counts bus activity.
type BusStats struct {
	Transfers  uint64
	BusyCycles uint64 // CPU cycles the bus spent moving data
	WaitCycles uint64 // CPU cycles requests spent queued behind other traffic
}

// NewBus builds a bus; cpuGHz is the processor clock the returned completion
// times are expressed in. It panics on a non-positive width, which Transfer
// could not count beats against.
func NewBus(cfg BusConfig, cpuGHz float64) *Bus {
	if cfg.WidthBytes <= 0 {
		panic("mem: " + cfg.Name + ": bus width must be positive")
	}
	per := uint64(cpuGHz / cfg.ClockGHz)
	if per == 0 {
		per = 1
	}
	return &Bus{cfg: cfg, cpuCyclesPerBeat: per}
}

// Transfer moves `bytes` over the bus starting no earlier than `now`,
// returning the CPU cycle at which the transfer completes.
func (b *Bus) Transfer(now uint64, bytes int) uint64 {
	// ceil(bytes/width), at least one, counted by subtraction: a transfer is
	// a request word or one cache line, a few bus widths at most, and the
	// width is a run-time value, so dividing costs a hardware divide each.
	beats := uint64(1)
	for rem := bytes - b.cfg.WidthBytes; rem > 0; rem -= b.cfg.WidthBytes {
		beats++
	}
	start := now
	if b.busyUntil > start {
		b.stats.WaitCycles += b.busyUntil - start
		start = b.busyUntil
	}
	dur := beats * b.cpuCyclesPerBeat
	end := start + dur
	if end > b.busyUntil {
		b.busyUntil = end
	}
	b.stats.Transfers++
	b.stats.BusyCycles += dur
	return end
}

// Stats returns a copy of the activity counters.
func (b *Bus) Stats() BusStats { return b.stats }

// Reset clears occupancy and counters (used between independent simulations).
func (b *Bus) Reset() {
	b.busyUntil = 0
	b.stats = BusStats{}
}

// Drain clears occupancy but keeps counters. The timing model calls it when
// a new timed region begins: region cycle counts restart at zero, and any
// in-flight traffic from the previous region has long since completed during
// the billions of skipped cycles between clusters.
func (b *Bus) Drain() { b.busyUntil = 0 }

// Config returns the bus parameters.
func (b *Bus) Config() BusConfig { return b.cfg }
