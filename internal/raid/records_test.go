package raid

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/disksim"
	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// opKey identifies one member-disk operation.
type opKey struct {
	op           storage.Op
	offset, size int64
}

// recordingDisk forwards to a real member disk and records, per
// operation, the completion time the disk reported.
type recordingDisk struct {
	Disk
	finish map[opKey][]simtime.Time
}

func (r *recordingDisk) Submit(req storage.Request, done func(simtime.Time)) {
	k := opKey{req.Op, req.Offset, req.Size}
	r.Disk.Submit(req, func(t simtime.Time) {
		r.finish[k] = append(r.finish[k], t)
		done(t)
	})
}

// syncDisk completes every operation synchronously, inside Submit,
// which storage.Device allows.  It reports the completion time the
// recorded run's disk gave the same operation, so an array over
// syncDisks must reproduce that run's completion times exactly.
type syncDisk struct {
	capacity int64
	tl       *powersim.Timeline
	finish   map[opKey][]simtime.Time
	t        *testing.T
}

func (s *syncDisk) Submit(req storage.Request, done func(simtime.Time)) {
	k := opKey{req.Op, req.Offset, req.Size}
	ts := s.finish[k]
	if len(ts) == 0 {
		s.t.Fatalf("synchronous member got %+v, which the recorded run never issued", req)
	}
	s.finish[k] = ts[1:]
	done(ts[0])
}

func (s *syncDisk) Capacity() int64              { return s.capacity }
func (s *syncDisk) Timeline() *powersim.Timeline { return s.tl }

// recordsWorkload returns reads, RMW writes and multi-stripe writes
// mixing full-stripe and RMW groups, each in its own region so no two
// requests issue the same member operation.
func recordsWorkload(fullStripe int64) []storage.Request {
	rng := rand.New(rand.NewPCG(13, 13))
	region := 8 * fullStripe
	var reqs []storage.Request
	for i := int64(0); i < 300; i++ {
		base := i * region
		var r storage.Request
		switch i % 3 {
		case 0:
			r = storage.Request{Op: storage.Read, Offset: base + rng.Int64N(2*fullStripe/4096)*4096, Size: 4096 * (1 + rng.Int64N(128))}
		case 1:
			r = storage.Request{Op: storage.Write, Offset: base + rng.Int64N(2*fullStripe/4096)*4096, Size: 4096 * (1 + rng.Int64N(16))}
		case 2:
			// From a stripe boundary plus a partial tail, or from mid
			// stripe across several stripes.
			off := base + fullStripe
			if rng.IntN(2) == 1 {
				off += rng.Int64N(fullStripe/4096) * 4096
			}
			r = storage.Request{Op: storage.Write, Offset: off, Size: fullStripe*(1+rng.Int64N(3)) + 4096*rng.Int64N(64)}
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// runRecords submits reqs, one every 300 µs, and returns each request's
// completion time.
func runRecords(t *testing.T, e *simtime.Engine, a *Array, reqs []storage.Request) []simtime.Time {
	t.Helper()
	finish := make([]simtime.Time, len(reqs))
	completed := 0
	for i, r := range reqs {
		e.Schedule(simtime.Time(int64(i)*int64(300*simtime.Microsecond)), func() {
			a.Submit(r, func(ft simtime.Time) {
				finish[i] = ft
				completed++
			})
		})
	}
	e.Run()
	if completed != len(reqs) {
		t.Fatalf("completed %d of %d requests", completed, len(reqs))
	}
	return finish
}

// TestSynchronousMembersMatchHDDArray runs the same workload on a
// regular HDD array and on an array whose members complete
// synchronously with the HDD run's completion times.  Synchronous
// completion re-enters the controller while it is still issuing, so
// any pooled record returned or reused while live would skew the stats
// or a completion time.
func TestSynchronousMembersMatchHDDArray(t *testing.T) {
	e := simtime.NewEngine()
	hdds, err := NewHDDArray(e, DefaultParams(), 6, disksim.Seagate7200())
	if err != nil {
		t.Fatal(err)
	}
	perDisk := make([]map[opKey][]simtime.Time, len(hdds.Disks()))
	rec := make([]Disk, len(hdds.Disks()))
	for i, d := range hdds.Disks() {
		perDisk[i] = map[opKey][]simtime.Time{}
		rec[i] = &recordingDisk{Disk: d, finish: perDisk[i]}
	}
	recorded, err := New(e, DefaultParams(), rec)
	if err != nil {
		t.Fatal(err)
	}
	fullStripe := int64(strip * (len(rec) - 1))
	reqs := recordsWorkload(fullStripe)
	want := runRecords(t, e, recorded, reqs)

	se := simtime.NewEngine()
	syncs := make([]Disk, len(rec))
	for i, d := range hdds.Disks() {
		syncs[i] = &syncDisk{capacity: d.Capacity(), tl: powersim.NewTimeline(1), finish: perDisk[i], t: t}
	}
	sa, err := New(se, DefaultParams(), syncs)
	if err != nil {
		t.Fatal(err)
	}
	got := runRecords(t, se, sa, reqs)

	if sa.Stats() != recorded.Stats() {
		t.Fatalf("synchronous-member stats %+v != HDD array %+v", sa.Stats(), recorded.Stats())
	}
	if s := recorded.Stats(); s.FullStripeWrites == 0 || s.RMWStripes == 0 || s.Reads == 0 {
		t.Fatalf("workload misses a path: %+v", s)
	}
	for i := range reqs {
		if got[i] != want[i] {
			t.Fatalf("request %d %+v completed at %v with synchronous members, %v on the HDD array", i, reqs[i], got[i], want[i])
		}
	}
	for i, m := range perDisk {
		for k, ts := range m {
			if len(ts) != 0 {
				t.Fatalf("member %d: %d recorded %+v ops never issued with synchronous members", i, len(ts), k)
			}
		}
	}
}

// issueOrder flattens a plan into the order the serial path issues it
// when every member op takes the same time: the first phase of every
// group (its reads, or its writes when it has none) in group order,
// then the write phase of each read-modify-write group in group order.
func issueOrder(groups []PlannedGroup) []PlannedOp {
	var ops []PlannedOp
	for _, g := range groups {
		if len(g.Reads) > 0 {
			ops = append(ops, g.Reads...)
		} else {
			ops = append(ops, g.Writes...)
		}
	}
	for _, g := range groups {
		if len(g.Reads) > 0 {
			ops = append(ops, g.Writes...)
		}
	}
	return ops
}

// TestDegradedPlanMatchesSubmit holds PlanRequest to what Submit
// issues, op for op, with a data member or a parity member lost.
func TestDegradedPlanMatchesSubmit(t *testing.T) {
	for _, failed := range []int{0, 3} {
		t.Run(fmt.Sprintf("failed-%d", failed), func(t *testing.T) {
			e := simtime.NewEngine()
			planned, _ := fakeArray(t, e, RAID5, 6)
			served, fakes := fakeArray(t, e, RAID5, 6)
			for _, a := range []*Array{planned, served} {
				if err := a.FailDisk(failed); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewPCG(21, uint64(failed)))
			fullStripe := int64(strip * 5)
			for i := 0; i < 400; i++ {
				op := storage.Read
				if rng.IntN(3) > 0 {
					op = storage.Write
				}
				req := storage.Request{Op: op, Offset: rng.Int64N(64*fullStripe/4096) * 4096, Size: 4096 * (1 + rng.Int64N(3*fullStripe/4096))}
				want := issueOrder(planned.PlanRequest(req))
				for _, f := range fakes {
					f.reqs = f.reqs[:0]
				}
				served.Submit(req, func(simtime.Time) {})
				e.Run()
				for d, f := range fakes {
					var wantDisk []storage.Request
					for _, o := range want {
						if o.Disk == d {
							wantDisk = append(wantDisk, o.Req)
						}
					}
					if len(f.reqs) != len(wantDisk) {
						t.Fatalf("request %+v: member %d got %d ops, plan has %d", req, d, len(f.reqs), len(wantDisk))
					}
					for j := range wantDisk {
						if f.reqs[j] != wantDisk[j] {
							t.Fatalf("request %+v: member %d op %d = %+v, plan %+v", req, d, j, f.reqs[j], wantDisk[j])
						}
					}
				}
			}
			if planned.Stats() != served.Stats() {
				t.Fatalf("PlanRequest stats %+v != Submit stats %+v", planned.Stats(), served.Stats())
			}
			if s := served.Stats(); s.DegradedStripes == 0 || s.ReconstructReads == 0 {
				t.Fatalf("workload never ran degraded: %+v", s)
			}
		})
	}
}
