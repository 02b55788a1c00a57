package cpu

import (
	"fmt"

	"ecodb/internal/energy"
	"ecodb/internal/sim"
)

// WorkKind classifies a segment of processor work. The kind determines both
// which clock paces the work and the switching-activity factor used for
// dynamic power.
type WorkKind int

const (
	// Compute is core-bound work paced by the CPU clock at full activity.
	Compute WorkKind = iota
	// MemStall is work dominated by DRAM accesses: it is paced by the
	// memory clock (FSB × memory multiplier), and the core draws reduced
	// dynamic power while stalled.
	MemStall
	// Stream is memory-bandwidth-bound data movement (result
	// materialization, large copies): paced by the memory clock with an
	// activity factor between Compute and MemStall.
	Stream

	numKinds // the number of work kinds
)

func (k WorkKind) String() string {
	switch k {
	case Compute:
		return "compute"
	case MemStall:
		return "memstall"
	case Stream:
		return "stream"
	default:
		return fmt.Sprintf("WorkKind(%d)", int(k))
	}
}

// Config describes a processor. Fields are exported so machine presets
// (EightfiveHundred below) and tests can build variants.
type Config struct {
	Model string
	Cores int

	// FSB is the stock front-side-bus speed.
	FSB MHz
	// PStates are the supported (multiplier, VID) pairs, any order.
	PStates []PState
	// MemMultiplier relates the memory clock to the FSB
	// (DDR3-1333 on a 333 MHz FSB has multiplier 4).
	MemMultiplier float64
	// MemFixedLatencyFrac is the fraction of a memory stall that is
	// DRAM-core latency (row activation, CAS in nanoseconds) and does not
	// shrink or stretch with the bus clock; the remainder is bus transfer
	// time that scales inversely with the memory clock.
	MemFixedLatencyFrac float64
	// MemTimingFallbackK models the board falling back to conservative
	// DRAM timings when the FSB deviates far from stock: the fixed-
	// latency part of memory stalls is multiplied by
	// 1 + K·max(0, underclock − MemTimingFallbackFreeUC).
	MemTimingFallbackK float64
	// MemTimingFallbackFreeUC is the underclocking the board absorbs
	// without relaxing DRAM timings.
	MemTimingFallbackFreeUC float64

	// CdynWPerV2GHz is the per-core dynamic power coefficient C in the
	// paper's CV²F model, in watts per (volt² · GHz) at activity 1.0.
	CdynWPerV2GHz float64
	// LeakWPerV is package leakage power per volt of core voltage.
	LeakWPerV float64
	// UncoreW is the constant package draw independent of p-state.
	UncoreW energy.Watts

	// Activity factors by work kind, plus the idle factors. Idle differs
	// between the stock configuration (Windows high-performance plan:
	// shallow C1 halts, slow SpeedStep downshifts during short I/O waits)
	// and the EPU-tuned configuration (immediate downshift, deep halt).
	ComputeActivity  float64
	MemStallActivity float64
	StreamActivity   float64
	IdleActivityHalt float64 // halted core sharing an active package
	IdleActivityDeep float64 // deep idle under EPU power management

	// DowngradeOffsets maps each Downgrade level to the voltage subtracted
	// from every p-state VID. Index by the Downgrade value.
	DowngradeOffsets [3]energy.Volts
	// DroopPerLoadedCore is the additional voltage droop per busy core
	// under the "light" loadline setting.
	DroopPerLoadedCore energy.Volts
	// VFloor is the minimum effective core voltage; the regulator cannot
	// go below it.
	VFloor energy.Volts
}

// E8500 returns the configuration of the paper's processor, an Intel
// Core 2 Duo E8500: two cores, 333 MHz FSB, 3.16 GHz stock (multiplier
// 9.5), with SpeedStep p-states down to multiplier 6. The power
// coefficients are calibrated so that the stock TPC-H workloads land near
// the paper's measured CPU joules (see internal/experiments calibration
// tests).
func E8500() Config {
	return Config{
		Model: "Intel Core 2 Duo E8500",
		Cores: 2,
		FSB:   333.33,
		PStates: []PState{
			{Multiplier: 6.0, VID: 1.000},
			{Multiplier: 7.0, VID: 1.075},
			{Multiplier: 8.0, VID: 1.150},
			{Multiplier: 9.0, VID: 1.212},
			{Multiplier: 9.5, VID: 1.250},
		},
		MemMultiplier:           4.0,
		MemFixedLatencyFrac:     0.50,
		MemTimingFallbackK:      1.50,
		MemTimingFallbackFreeUC: 0.05,

		CdynWPerV2GHz: 3.80,
		LeakWPerV:     3.00,
		UncoreW:       2.50,

		ComputeActivity:  1.00,
		MemStallActivity: 0.38,
		StreamActivity:   0.55,
		IdleActivityHalt: 0.15,
		IdleActivityDeep: 0.06,

		DowngradeOffsets:   [3]energy.Volts{0, 0.055, 0.100},
		DroopPerLoadedCore: 0.020,
		VFloor:             0.70,
	}
}

// CPU is a simulated processor attached to a virtual clock. It executes
// work segments, advancing the clock and recording its package power draw
// in a trace that sensors sample.
//
// CPU is not safe for concurrent use; one simulated machine runs one query
// at a time, as in the paper's workload model.
type CPU struct {
	cfg     Config
	pstates []PState // ascending multiplier
	clock   *sim.Clock
	trace   energy.Trace

	// Tunables (the 6-Engine controls).
	underclock float64 // FSB reduction fraction, e.g. 0.05
	downgrade  Downgrade
	loadline   Loadline
	capMult    float64 // 0 = no multiplier cap
	deepIdle   bool    // EPU-managed idle (immediate downshift + deep halt)
	stallCap   float64 // EPU low-IPC downshift: multiplier cap during stalls

	parallelism int // cores used by Run work

	// The operating points the settings above define, rebuilt by retune
	// whenever one of them changes: ops[par-1][kind] for each parallelism
	// 1..Cores and work kind, and the package draw while waiting.
	ops   [][numKinds]opPoint
	idleW energy.Watts

	// obs, when non-nil, observes every clock-advancing segment. Purely
	// passive: the engine installs a per-query profile collector here to
	// attribute run energy to operators without changing any charge.
	obs Observer

	// Accounting.
	busy         sim.Duration
	idle         sim.Duration
	vIntegral    float64 // ∫V dt over busy time (for Figure 4 monitoring)
	fIntegral    float64 // ∫F dt over busy time, GHz·s
	cyclesDone   float64
	cyclesByKind [3]float64 // indexed by WorkKind
	coreSeconds  float64    // busy seconds weighted by parallelism
}

// Observer watches the CPU's clock-advancing segments: busy runs with the
// power the trace records for them, and idle waits. Observations are
// read-only; implementations must not touch the CPU or the clock.
type Observer interface {
	CPURun(kind WorkKind, cycles float64, start, end sim.Time, busy energy.Watts)
	CPUWait(start, end sim.Time, idle energy.Watts)
}

// SetObserver installs (or, with nil, removes) the segment observer.
func (c *CPU) SetObserver(o Observer) { c.obs = o }

// New returns a CPU with the given configuration attached to clock.
// It panics if the configuration is invalid, since configurations are
// compile-time presets.
func New(cfg Config, clock *sim.Clock) *CPU {
	ps, err := sortPStates(cfg.PStates)
	if err != nil {
		panic(err)
	}
	if cfg.Cores <= 0 {
		panic("cpu: config needs at least one core")
	}
	c := &CPU{cfg: cfg, pstates: ps, clock: clock, parallelism: 1}
	c.ops = make([][numKinds]opPoint, cfg.Cores)
	c.retune()
	c.recordIdle()
	return c
}

// Config returns the processor's configuration.
func (c *CPU) Config() Config { return c.cfg }

// Trace returns the package power trace (what the motherboard's EPU sensor
// reads).
func (c *CPU) Trace() *energy.Trace { return &c.trace }

// Clock returns the virtual clock the CPU advances.
func (c *CPU) Clock() *sim.Clock { return c.clock }

// SetUnderclock lowers the FSB by the given fraction (0.05 = 5%).
// Fractions outside [0, 0.5) panic: the paper's motherboard cannot
// underclock by half.
func (c *CPU) SetUnderclock(frac float64) {
	if frac < 0 || frac >= 0.5 {
		panic(fmt.Sprintf("cpu: underclock fraction %v out of range [0,0.5)", frac))
	}
	c.underclock = frac
	c.retune()
	c.recordIdle()
}

// Underclock returns the current FSB reduction fraction.
func (c *CPU) Underclock() float64 { return c.underclock }

// SetDowngrade selects a voltage downgrade preset.
func (c *CPU) SetDowngrade(d Downgrade) {
	if d < DowngradeNone || d > DowngradeMedium {
		panic(fmt.Sprintf("cpu: unknown downgrade %d", int(d)))
	}
	c.downgrade = d
	c.retune()
	c.recordIdle()
}

// Downgrade returns the current voltage downgrade level.
func (c *CPU) Downgrade() Downgrade { return c.downgrade }

// SetLoadline selects the loadline calibration.
func (c *CPU) SetLoadline(l Loadline) {
	c.loadline = l
	c.retune()
	c.recordIdle()
}

// SetDeepIdle enables the EPU-tuned idle behaviour: immediate downshift to
// the lowest p-state and deep halt states during waits. The stock Windows
// Server high-performance configuration leaves this off, so short I/O waits
// burn near-active power at the top p-state.
func (c *CPU) SetDeepIdle(on bool) {
	c.deepIdle = on
	c.retune()
	c.recordIdle()
}

// SetStallMultiplierCap engages the EPU's dynamic low-load downshift: while
// the core executes memory-stalled or streaming work (low IPC), it drops to
// the highest p-state whose multiplier does not exceed mult. Because such
// work is paced by the memory clock, the downshift costs almost no time but
// removes core switching power — the asymmetric mechanism that saves far
// more on stall-heavy workloads (the commercial DBMS) than on CPU-pegged
// ones (MySQL's MEMORY engine). A cap of 0 disables the downshift (stock
// behaviour, EPU software not running).
func (c *CPU) SetStallMultiplierCap(mult float64) {
	if mult != 0 && mult < c.pstates[0].Multiplier {
		panic(fmt.Sprintf("cpu: stall multiplier cap %v below lowest p-state %v", mult, c.pstates[0].Multiplier))
	}
	c.stallCap = mult
	c.retune() // the idle draw does not depend on the stall cap: no trace step
}

// SetMultiplierCap caps the top usable multiplier (the traditional p-state
// power-management alternative the paper contrasts with underclocking).
// A cap of 0 removes the cap. Caps below the lowest multiplier panic.
func (c *CPU) SetMultiplierCap(mult float64) {
	if mult != 0 && mult < c.pstates[0].Multiplier {
		panic(fmt.Sprintf("cpu: multiplier cap %v below lowest p-state %v", mult, c.pstates[0].Multiplier))
	}
	c.capMult = mult
	c.retune()
	c.recordIdle()
}

// SetParallelism sets how many cores subsequent Run segments use.
// It panics if n is not in [1, Cores].
func (c *CPU) SetParallelism(n int) {
	if n < 1 || n > c.cfg.Cores {
		panic(fmt.Sprintf("cpu: parallelism %d outside [1,%d]", n, c.cfg.Cores))
	}
	c.parallelism = n
}

// Parallelism returns how many cores Run segments currently use.
func (c *CPU) Parallelism() int { return c.parallelism }

// FSB returns the effective front-side-bus speed after underclocking.
func (c *CPU) FSB() MHz { return MHz(float64(c.cfg.FSB) * (1 - c.underclock)) }

// MemFreq returns the effective memory clock: FSB × memory multiplier.
// Underclocking the FSB slows memory proportionally.
func (c *CPU) MemFreq() MHz { return MHz(float64(c.FSB()) * c.cfg.MemMultiplier) }

// TopPState returns the highest usable p-state, honoring a multiplier cap.
func (c *CPU) TopPState() PState { return c.atOrUnder(c.capMult) }

// atOrUnder returns the highest p-state whose multiplier is at or under
// mult, where a mult of 0 is no cap.
func (c *CPU) atOrUnder(mult float64) PState {
	if mult == 0 {
		return c.pstates[len(c.pstates)-1]
	}
	best := c.pstates[0]
	for _, p := range c.pstates {
		if p.Multiplier <= mult && p.Multiplier > best.Multiplier {
			best = p
		}
	}
	return best
}

// PStates returns the configured p-states in ascending multiplier order.
func (c *CPU) PStates() []PState {
	out := make([]PState, len(c.pstates))
	copy(out, c.pstates)
	return out
}

// Freq returns the effective core frequency of p-state p.
func (c *CPU) Freq(p PState) MHz { return p.Freq(c.FSB()) }

// Voltage returns the effective core voltage at p-state p with loadedCores
// cores drawing current: VID − downgrade offset − loadline droop, floored
// at the regulator minimum.
func (c *CPU) Voltage(p PState, loadedCores int) energy.Volts {
	v := p.VID - c.cfg.DowngradeOffsets[c.downgrade]
	if c.loadline == LoadlineLight {
		v -= c.cfg.DroopPerLoadedCore * energy.Volts(loadedCores)
	}
	if v < c.cfg.VFloor {
		v = c.cfg.VFloor
	}
	return v
}

// power computes package power at p-state p with activeCores cores running
// at the given activity; remaining cores are halted.
func (c *CPU) power(p PState, activity float64, activeCores int) energy.Watts {
	v := float64(c.Voltage(p, activeCores))
	f := c.Freq(p).GHz()
	haltAct := c.cfg.IdleActivityHalt
	if c.deepIdle {
		haltAct = c.cfg.IdleActivityDeep
	}
	dyn := 0.0
	for core := 0; core < c.cfg.Cores; core++ {
		act := haltAct
		if core < activeCores {
			act = activity
		}
		dyn += c.cfg.CdynWPerV2GHz * v * v * f * act
	}
	leak := c.cfg.LeakWPerV * v
	return energy.Watts(dyn+leak) + c.cfg.UncoreW
}

// PowerAt reports package power at an explicit p-state, activity factor and
// active-core count under the current voltage settings. It exists for
// instruments and scenarios outside normal execution (e.g. the firmware
// spin loop in the Table 1 breakdown).
func (c *CPU) PowerAt(p PState, activity float64, activeCores int) energy.Watts {
	return c.power(p, activity, activeCores)
}

// opPoint is one operating point: how work of one kind runs at one
// parallelism under the current settings.
type opPoint struct {
	// A segment of n cycles lasts n / div * mul / den seconds. A term that
	// does not apply is 1, which multiplies and divides exactly.
	div, mul, den float64
	watts         energy.Watts // package draw while busy
	volts         float64      // effective core voltage while busy
	ghz           float64      // core frequency while busy
}

// seconds returns how long cycles take at this operating point.
func (o *opPoint) seconds(cycles float64) float64 { return cycles / o.div * o.mul / o.den }

// retune rebuilds the operating points and the idle draw from the current
// settings. Every setter calls it, so Run, Wait, the power readouts and
// the estimates read one definition of each and never recompute it.
//
// Compute cycles are paced by the core clock at the top p-state divided
// across the parallelism. MemStall and Stream cycles are counted against
// the stock memory clock and do not divide across cores. A stall stretches
// by the blend of fixed DRAM latency (with any timing-fallback penalty) and
// clock-scaled transfer time; bandwidth-bound streaming scales with the
// memory clock and also suffers the timing fallback. The core's p-state
// does not pace either, so the EPU stall downshift applies to both.
func (c *CPU) retune() {
	top := c.TopPState()
	stall := top
	if c.stallCap != 0 {
		stall = c.atOrUnder(c.stallCap)
	}
	topHz := c.Freq(top).Hz()
	memHz := MHz(float64(c.cfg.FSB) * c.cfg.MemMultiplier).Hz()
	stallMul, streamMul := c.memSlowdown(), c.memTimingPenalty()
	activity := [numKinds]float64{c.cfg.ComputeActivity, c.cfg.MemStallActivity, c.cfg.StreamActivity}
	for i := range c.ops {
		par := i + 1
		row := &c.ops[i]
		row[Compute] = opPoint{div: topHz * float64(par), mul: 1, den: 1}
		row[MemStall] = opPoint{div: memHz, mul: stallMul, den: 1}
		row[Stream] = opPoint{div: memHz, mul: streamMul, den: 1 - c.underclock}
		for kind := range row {
			ps := stall
			if kind == int(Compute) {
				ps = top
			}
			o := &row[kind]
			o.watts = c.power(ps, activity[kind], par)
			o.volts = float64(c.Voltage(ps, par))
			o.ghz = c.Freq(ps).GHz()
		}
	}
	// With EPU deep idle the processor downshifts to the lowest multiplier
	// immediately; the stock configuration lingers at the top p-state
	// during the short waits that punctuate database workloads.
	if c.deepIdle {
		c.idleW = c.power(c.pstates[0], c.cfg.IdleActivityDeep, 0)
	} else {
		c.idleW = c.power(top, c.cfg.IdleActivityHalt, 0)
	}
}

// at returns the operating point of kind at parallelism par.
func (c *CPU) at(kind WorkKind, par int) *opPoint {
	if kind < Compute || kind >= numKinds {
		panic(fmt.Sprintf("cpu: unknown work kind %d", int(kind)))
	}
	return &c.ops[par-1][kind]
}

// recordIdle records the idle draw from now on.
func (c *CPU) recordIdle() { c.trace.Set(c.clock.Now(), c.idleW) }

// IdlePower reports the package power while waiting under current settings.
func (c *CPU) IdlePower() energy.Watts { return c.idleW }

// BusyPower reports the package power while running work of the given kind
// at the current parallelism and settings, including any EPU stall
// downshift for memory-paced kinds.
func (c *CPU) BusyPower(kind WorkKind) energy.Watts { return c.at(kind, c.parallelism).watts }

// EstimateSeconds returns the seconds Run would take to execute cycles of
// the given kind at the given parallelism (clamped to [1, Cores]) under the
// current settings, without executing anything: the optimizer costs plans
// with it.
//
// Compute work divides across cores; memory-paced work (MemStall, Stream)
// does not — its duration is set by the memory clock regardless of how
// many cores wait on it. That asymmetry is the optimizer's main
// parallelism lever: extra cores halve compute time but only add
// switching power to stall time.
func (c *CPU) EstimateSeconds(cycles float64, kind WorkKind, parallelism int) float64 {
	if cycles <= 0 {
		return 0
	}
	return c.estimatePoint(kind, parallelism).seconds(cycles)
}

// EstimateEnergy returns the package joules Run would record for cycles of
// the given kind at the given parallelism: busy power at the segment's
// operating point times its duration.
func (c *CPU) EstimateEnergy(cycles float64, kind WorkKind, parallelism int) float64 {
	if cycles <= 0 {
		return 0
	}
	o := c.estimatePoint(kind, parallelism)
	return float64(o.watts) * o.seconds(cycles)
}

// estimatePoint is the operating point an estimate reads: its own
// parallelism, clamped to the cores there are.
func (c *CPU) estimatePoint(kind WorkKind, parallelism int) *opPoint {
	return c.at(kind, min(max(parallelism, 1), c.cfg.Cores))
}

// Run executes a work segment of the given cycle count and kind at the
// current parallelism, advancing the clock and recording energy. It
// returns the segment's duration. Negative cycles panic; zero cycles are a
// no-op.
func (c *CPU) Run(cycles float64, kind WorkKind) sim.Duration {
	if cycles < 0 {
		panic("cpu: negative cycle count")
	}
	if cycles == 0 {
		return 0
	}
	o := c.at(kind, c.parallelism)
	d := sim.Duration(o.seconds(cycles))
	start := c.clock.Now()
	c.trace.Set(start, o.watts)
	c.clock.Advance(d)
	c.recordIdle()
	if c.obs != nil {
		c.obs.CPURun(kind, cycles, start, c.clock.Now(), o.watts)
	}

	c.busy += d
	c.cyclesDone += cycles
	c.cyclesByKind[kind] += cycles
	c.coreSeconds += d.Seconds() * float64(c.parallelism)
	c.vIntegral += o.volts * d.Seconds()
	c.fIntegral += o.ghz * d.Seconds()
	return d
}

// memTimingPenalty returns the DRAM timing-fallback multiplier at the
// current underclock.
func (c *CPU) memTimingPenalty() float64 {
	over := c.underclock - c.cfg.MemTimingFallbackFreeUC
	if over <= 0 {
		return 1
	}
	return 1 + c.cfg.MemTimingFallbackK*over
}

// memSlowdown returns the memory-stall time multiplier relative to stock:
// the fixed-latency fraction pays the timing penalty, the transfer fraction
// scales with the slowed memory clock.
func (c *CPU) memSlowdown() float64 {
	ff := c.cfg.MemFixedLatencyFrac
	return ff*c.memTimingPenalty() + (1-ff)/(1-c.underclock)
}

// Wait idles the processor for d (e.g. while a disk read completes),
// advancing the clock and recording idle-state energy.
func (c *CPU) Wait(d sim.Duration) {
	if d < 0 {
		panic("cpu: negative wait")
	}
	if d == 0 {
		return
	}
	start := c.clock.Now()
	c.recordIdle()
	c.clock.Advance(d)
	c.recordIdle()
	if c.obs != nil {
		c.obs.CPUWait(start, c.clock.Now(), c.idleW)
	}
	c.idle += d
}

// Stats reports accumulated execution counters.
type Stats struct {
	Busy   sim.Duration
	Idle   sim.Duration
	Cycles float64
	// CyclesByKind breaks Cycles down by work kind — the parallel work
	// accounting the morsel executor's tests use to verify that the
	// dispatcher charges exactly the work the serial pipeline charges.
	CyclesByKind [3]float64
	// CoreSeconds is busy wall time weighted by the parallelism each
	// segment ran at: a 2-core segment of 1 s contributes 2 core-seconds.
	// It differs from Busy exactly when SetParallelism spread work over
	// multiple simulated cores.
	CoreSeconds float64
	// MeanVoltage and MeanFreqGHz are the time-weighted averages observed
	// over busy segments — the quantities the paper monitors to build its
	// Figure 4 theoretical EDP = V²/F comparison.
	MeanVoltage  energy.Volts
	MeanFreqGHz  float64
	BusyFraction float64
}

// Stats returns the counters accumulated since construction or ResetStats.
func (c *CPU) Stats() Stats {
	s := Stats{
		Busy: c.busy, Idle: c.idle, Cycles: c.cyclesDone,
		CyclesByKind: c.cyclesByKind, CoreSeconds: c.coreSeconds,
	}
	if c.busy > 0 {
		s.MeanVoltage = energy.Volts(c.vIntegral / c.busy.Seconds())
		s.MeanFreqGHz = c.fIntegral / c.busy.Seconds()
	}
	if total := c.busy + c.idle; total > 0 {
		s.BusyFraction = float64(c.busy) / float64(total)
	}
	return s
}

// ResetStats zeroes the accumulated counters (not the power trace).
func (c *CPU) ResetStats() {
	c.busy, c.idle, c.cyclesDone, c.vIntegral, c.fIntegral = 0, 0, 0, 0, 0
	c.cyclesByKind = [3]float64{}
	c.coreSeconds = 0
}
