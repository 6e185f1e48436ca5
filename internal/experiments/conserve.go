package experiments

import (
	"fmt"

	"repro/internal/blktrace"
	"repro/internal/cache"
	"repro/internal/conserve"
	"repro/internal/disksim"
	"repro/internal/powersim"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/synth"
)

// ConserveTechniques lists every technique NewConserveSystem builds, in
// the order the energy studies report them.
var ConserveTechniques = []string{"always-on", "tpm", "drpm", "eraid", "pdc", "maid"}

// ConserveSpec parameterises one conservation-technique device stack.
// The zero value of every field selects the paper-default configuration
// the conservation study uses, so ConserveSpec{Technique: "tpm"}
// reproduces the study's TPM array exactly; the optimize search varies
// individual knobs from there.
type ConserveSpec struct {
	// Technique is one of ConserveTechniques.
	Technique string
	// Disks is the member count (MAID: data disks).  0 defaults to the
	// technique's study configuration (6; MAID: 5 data + cache).
	Disks int
	// Drive parameterises every member; a zero value (detected by
	// CapacityBytes == 0) defaults to Seagate7200.
	Drive disksim.HDDParams
	// ChunkBytes is the striping/cache granularity.  0 defaults 64 KiB.
	ChunkBytes int64

	// TPMTimeout is the idle spin-down threshold (tpm; also the default
	// for the PDC and MAID member timeouts).  0 defaults to 10s — pass a
	// sub-nanosecond positive value to approximate immediate spin-down.
	TPMTimeout simtime.Duration

	// DRPMStepDown is the idle window before dropping one RPM level;
	// 0 defaults to 2s.  DRPMLevels nil defaults to the four-step table.
	DRPMStepDown simtime.Duration
	DRPMLevels   []float64

	// ERAIDLowIOPS / ERAIDHighIOPS bound the offline hysteresis band
	// (0 defaults 20/60); ERAIDWindow is the evaluation interval (0
	// defaults 2s); ERAIDMaxOffline bounds the degraded set (0 defaults
	// 1; -1 never rests a member — the always-on eRAID baseline; values
	// above RAID-5 parity tolerance are rejected).
	ERAIDLowIOPS, ERAIDHighIOPS float64
	ERAIDWindow                 simtime.Duration
	ERAIDMaxOffline             int

	// PDCReorgInterval is the popularity re-ranking period (0 defaults
	// 5s); PDCSpinDownTimeout the member TPM timeout (0 defaults to
	// TPMTimeout); PDCMaxMigrations and PDCDecay keep their package
	// defaults (256, 0.5) when zero.
	PDCReorgInterval   simtime.Duration
	PDCSpinDownTimeout simtime.Duration
	PDCMaxMigrations   int
	PDCDecay           float64

	// MAIDCacheDisks (0 defaults 1), MAIDCacheChunks (0 defaults 4096)
	// and MAIDDataTimeout (0 defaults to TPMTimeout) shape the cache
	// tier.
	MAIDCacheDisks  int
	MAIDCacheChunks int
	MAIDDataTimeout simtime.Duration

	// Cache fronts the stack with a writeback cache tier when the
	// technique is "cache" (a TPM-managed JBOD behind a DRAM tier —
	// the writeback/spin-down energy coupling).  An unset spec
	// defaults to a 32 MiB DRAM tier.
	Cache CacheSpec

	// Control, when non-nil, receives every policy decision (and can
	// veto them) — the optimize ledger and counterfactual replayer hook
	// in here.  Nil runs are completely unobserved.
	Control *conserve.Control
}

// withDefaults resolves zero fields to the study configuration.
func (s ConserveSpec) withDefaults() ConserveSpec {
	if s.Disks <= 0 {
		if s.Technique == "maid" {
			s.Disks = conserve.DefaultMAIDParams().DataDisks
		} else {
			s.Disks = 6
		}
	}
	if s.Drive.CapacityBytes == 0 {
		s.Drive = disksim.Seagate7200()
	}
	if s.ChunkBytes <= 0 {
		s.ChunkBytes = 64 << 10
	}
	if s.TPMTimeout <= 0 {
		s.TPMTimeout = 10 * simtime.Second
	}
	if s.DRPMStepDown <= 0 {
		s.DRPMStepDown = 2 * simtime.Second
	}
	if s.ERAIDLowIOPS <= 0 {
		s.ERAIDLowIOPS = conserve.DefaultERAIDParams().LowIOPS
	}
	if s.ERAIDHighIOPS <= 0 {
		s.ERAIDHighIOPS = conserve.DefaultERAIDParams().HighIOPS
	}
	if s.ERAIDWindow <= 0 {
		s.ERAIDWindow = conserve.DefaultERAIDParams().Window
	}
	if s.PDCReorgInterval <= 0 {
		s.PDCReorgInterval = 5 * simtime.Second
	}
	if s.PDCSpinDownTimeout <= 0 {
		s.PDCSpinDownTimeout = s.TPMTimeout
	}
	if s.MAIDCacheDisks <= 0 {
		s.MAIDCacheDisks = conserve.DefaultMAIDParams().CacheDisks
	}
	if s.MAIDCacheChunks <= 0 {
		s.MAIDCacheChunks = conserve.DefaultMAIDParams().CacheChunks
	}
	if s.MAIDDataTimeout <= 0 {
		s.MAIDDataTimeout = s.TPMTimeout
	}
	if s.Technique == "cache" && !s.Cache.Enabled() {
		s.Cache = CacheSpec{Tier: cache.TierDRAM, CapacityMB: 32}
	}
	return s
}

// ConserveSystem is one provisioned technique stack: the device to
// replay against, its wall-power source, and the member drives for
// wear accounting and invariant checks.
type ConserveSystem struct {
	Device storage.Device
	Source powersim.Source
	// HDDs are every member drive (MAID: cache first, then data).
	HDDs []*disksim.HDD
	// Exactly one of the policy pointers is set for its technique.
	MAID  *conserve.MAID
	PDC   *conserve.PDC
	ERAID *conserve.ERAIDArray
	// Cache is the front tier of the "cache" technique.
	Cache *cache.Cache
}

// WearCounts totals the spindle wear the policies inflicted across the
// members: spin-up cycles (the dominant mechanical cost) and RPM
// shifts.
func (s *ConserveSystem) WearCounts() (spinUps, rpmShifts int64) {
	for _, h := range s.HDDs {
		st := h.Stats()
		spinUps += st.SpinUps
		rpmShifts += st.RPMShifts
	}
	return spinUps, rpmShifts
}

// NewConserveSystem provisions the device stack for one technique on
// engine.  Member seeds derive from the drive seed exactly as the
// conservation study's builder always has, so a default spec reproduces
// its measurements bit-for-bit.
func NewConserveSystem(engine *simtime.Engine, spec ConserveSpec) (*ConserveSystem, error) {
	spec = spec.withDefaults()
	sys := &ConserveSystem{}
	switch spec.Technique {
	case "always-on", "tpm", "drpm", "cache":
		members := make([]conserve.Member, spec.Disks)
		for i := range members {
			p := spec.Drive
			p.Seed += uint64(i) * 104729
			hdd := disksim.NewHDD(engine, p)
			sys.HDDs = append(sys.HDDs, hdd)
			switch spec.Technique {
			case "tpm", "cache":
				m := conserve.NewManagedDisk(engine, hdd, spec.TPMTimeout)
				m.AttachDecisions(spec.Control, "tpm", i)
				members[i] = m
			case "drpm":
				d := conserve.NewDRPMDisk(engine, hdd, spec.DRPMLevels, spec.DRPMStepDown)
				d.AttachDecisions(spec.Control, i)
				members[i] = d
			default:
				members[i] = hdd
			}
		}
		jbod, err := conserve.NewJBOD(members, spec.ChunkBytes)
		if err != nil {
			return nil, err
		}
		sys.Device, sys.Source = jbod, jbod.PowerSource()
		if spec.Technique == "cache" {
			// The cache fronts a spin-down-managed JBOD: its flush and
			// idle-drain cadence decides whether members ever see idle
			// windows longer than the TPM timeout.
			c, err := cache.New(engine, jbod, jbod.PowerSource(), spec.Cache.Params())
			if err != nil {
				return nil, err
			}
			sys.Device, sys.Source, sys.Cache = c, c.PowerSource(), c
		}
	case "eraid":
		p := conserve.DefaultERAIDParams()
		p.Disks = spec.Disks
		p.Drive = spec.Drive
		p.LowIOPS, p.HighIOPS = spec.ERAIDLowIOPS, spec.ERAIDHighIOPS
		p.Window = spec.ERAIDWindow
		p.MaxOffline = spec.ERAIDMaxOffline
		// eRAID takes its control at construction: the load evaluator
		// ticks once at t=0 and may rest a member immediately.
		p.Control = spec.Control
		arr, err := conserve.NewERAIDArray(engine, p)
		if err != nil {
			return nil, err
		}
		sys.Device, sys.Source, sys.ERAID, sys.HDDs = arr, arr.PowerSource(), arr, arr.HDDs()
	case "pdc":
		p := conserve.DefaultPDCParams()
		p.Disks = spec.Disks
		p.Drive = spec.Drive
		p.ChunkBytes = spec.ChunkBytes
		p.ReorgInterval = spec.PDCReorgInterval
		p.SpinDownTimeout = spec.PDCSpinDownTimeout
		if spec.PDCMaxMigrations > 0 {
			p.MaxMigrations = spec.PDCMaxMigrations
		}
		if spec.PDCDecay > 0 {
			p.Decay = spec.PDCDecay
		}
		pdc, err := conserve.NewPDC(engine, p)
		if err != nil {
			return nil, err
		}
		pdc.AttachDecisions(spec.Control)
		sys.Device, sys.Source, sys.PDC, sys.HDDs = pdc, pdc.PowerSource(), pdc, pdc.HDDs()
	case "maid":
		p := conserve.DefaultMAIDParams()
		p.CacheDisks, p.DataDisks = spec.MAIDCacheDisks, spec.Disks
		p.Drive = spec.Drive
		p.ChunkBytes = spec.ChunkBytes
		p.CacheChunks = spec.MAIDCacheChunks
		p.DataTimeout = spec.MAIDDataTimeout
		maid, err := conserve.NewMAID(engine, p)
		if err != nil {
			return nil, err
		}
		maid.AttachDecisions(spec.Control)
		sys.Device, sys.Source, sys.MAID, sys.HDDs = maid, maid.PowerSource(), maid, maid.MemberHDDs()
	default:
		return nil, fmt.Errorf("unknown technique %q", spec.Technique)
	}
	return sys, nil
}

// ConservationTrace synthesises the sparse web-server workload the
// conservation study (and the optimize harness) replays: ten virtual
// minutes of low-rate traffic with real idle gaps and a fully cacheable
// hot set.
func ConservationTrace(seed uint64) *blktrace.Trace {
	wp := synth.DefaultWebServer()
	wp.Seed = seed
	wp.Duration = 10 * simtime.Minute
	wp.MeanIOPS = 4
	wp.FootprintBytes = 4 << 20
	return synth.WebServerTrace(wp)
}

// MeasureConserve provisions spec on a fresh engine, replays trace at
// the given load proportion and meters wall power over the run — the
// fitness-measurement cell the optimize search fans out.  The built
// system is returned alongside so callers can read wear counters and
// policy stats.
func MeasureConserve(cfg Config, spec ConserveSpec, trace *blktrace.Trace, load float64) (*Measurement, *ConserveSystem, error) {
	cfg = cfg.normalize()
	engine := simtime.NewEngine()
	sys, err := NewConserveSystem(engine, spec)
	if err != nil {
		return nil, nil, err
	}
	m, err := rig{engine: engine, dev: sys.Device, wall: sys.Source}.measure(cfg, trace, replay.UniformFilter{Proportion: load}, nil)
	if err != nil {
		return nil, nil, err
	}
	return m, sys, nil
}
