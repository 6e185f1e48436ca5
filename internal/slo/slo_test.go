package slo

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/simtime"
	"repro/internal/workload"
)

// testSpec is a tight two-class spec with small windows so unit tests
// can drive whole windows in a few ticks: interval 10ms, fast 50ms
// (5 ticks), slow 200ms (20 ticks), threshold 4.
func testSpec() Spec {
	return Spec{
		Version:       SpecVersion,
		Name:          "test",
		FastWindow:    50 * simtime.Millisecond,
		SlowWindow:    200 * simtime.Millisecond,
		EvalInterval:  10 * simtime.Millisecond,
		BurnThreshold: 4,
		Classes: []ClassSpec{
			{
				Name:  "gold",
				Match: Match{Mod: 2, Buckets: []uint64{0}},
				Objectives: []Objective{
					{Name: "lat", Kind: KindLatency, Target: 0.9, ThresholdNs: 5 * simtime.Millisecond},
					{Name: "avail", Kind: KindAvailability, Target: 0.99},
				},
			},
			{
				Name:  "bronze",
				Match: Match{Mod: 2, Buckets: []uint64{1}},
				Objectives: []Objective{
					{Name: "lat", Kind: KindLatency, Target: 0.5, ThresholdNs: 50 * simtime.Millisecond},
				},
			},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if err := ExampleSpec().Validate(); err != nil {
		t.Fatalf("example spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"bad version", func(s *Spec) { s.Version = 99 }, "version"},
		{"no classes", func(s *Spec) { s.Classes = nil }, "no classes"},
		{"fast>slow", func(s *Spec) { s.FastWindow = s.SlowWindow * 2 }, "exceeds"},
		{"misaligned", func(s *Spec) { s.EvalInterval = 7 * simtime.Millisecond }, "multiples"},
		{"zero default interval", func(s *Spec) { s.FastWindow, s.EvalInterval = 3, 0 }, "too short"},
		{"too many ticks", func(s *Spec) { s.FastWindow, s.SlowWindow, s.EvalInterval = 1, simtime.Hour, 1 }, "limit"},
		{"dup class", func(s *Spec) { s.Classes[1].Name = "gold" }, "duplicate"},
		{"bucket>=mod", func(s *Spec) { s.Classes[0].Match.Buckets = []uint64{2} }, "outside mod"},
		{"mod no buckets", func(s *Spec) { s.Classes[0].Match.Buckets = nil }, "no buckets"},
		{"no objectives", func(s *Spec) { s.Classes[0].Objectives = nil }, "no objectives"},
		{"bad target", func(s *Spec) { s.Classes[0].Objectives[0].Target = 1.5 }, "outside (0,1)"},
		{"no threshold", func(s *Spec) { s.Classes[0].Objectives[0].ThresholdNs = 0 }, "threshold"},
		{"bad kind", func(s *Spec) { s.Classes[0].Objectives[0].Kind = "vibes" }, "unknown kind"},
		{"tenant no periods", func(s *Spec) { s.Classes[0].Match.Tenants = []string{"x"} }, "no periods"},
	}
	for _, tc := range cases {
		s := testSpec()
		tc.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestClassifyModAndTenant(t *testing.T) {
	s := testSpec()
	if got := s.Classify(0, 4); got != 0 {
		t.Fatalf("client 4 classified %d, want 0 (gold)", got)
	}
	if got := s.Classify(0, 7); got != 1 {
		t.Fatalf("client 7 classified %d, want 1 (bronze)", got)
	}

	// Tenant windows: the multi-tenant preset alternates tenant-a and
	// tenant-b quarters.
	periods := workload.MultiTenantSpec(400 * simtime.Millisecond)
	ts := Spec{
		Version: SpecVersion,
		Name:    "tenants",
		Periods: &periods,
		Classes: []ClassSpec{
			{Name: "a", Match: Match{Tenants: []string{"tenant-a", "tenant-a2"}},
				Objectives: []Objective{{Name: "lat", Kind: KindLatency, Target: 0.9, ThresholdNs: simtime.Millisecond}}},
			{Name: "b", Match: Match{Tenants: []string{"tenant-b", "tenant-b2"}},
				Objectives: []Objective{{Name: "lat", Kind: KindLatency, Target: 0.9, ThresholdNs: simtime.Millisecond}}},
		},
	}
	if err := ts.Validate(); err != nil {
		t.Fatalf("tenant spec rejected: %v", err)
	}
	if got := ts.Classify(simtime.Time(50*simtime.Millisecond), 123); got != 0 {
		t.Fatalf("arrival in tenant-a window classified %d, want 0", got)
	}
	if got := ts.Classify(simtime.Time(150*simtime.Millisecond), 123); got != 1 {
		t.Fatalf("arrival in tenant-b window classified %d, want 1", got)
	}
	if got := ts.Classify(simtime.Time(999*simtime.Millisecond), 123); got != -1 {
		t.Fatalf("arrival past all windows classified %d, want -1", got)
	}

	// Unknown tenant name is rejected.
	ts.Classes[0].Match.Tenants = []string{"nope"}
	if err := ts.Validate(); err == nil {
		t.Fatal("unknown tenant accepted")
	}
}

func TestPeriodAt(t *testing.T) {
	spec := workload.DiurnalSpec(400 * simtime.Millisecond)
	p, ok := spec.PeriodAt(0)
	if !ok || p.Name != "night" {
		t.Fatalf("PeriodAt(0) = %v,%v, want night", p.Name, ok)
	}
	p, ok = spec.PeriodAt(399 * simtime.Millisecond)
	if !ok || p.Name != "evening" {
		t.Fatalf("PeriodAt(399ms) = %v,%v, want evening", p.Name, ok)
	}
	if _, ok := spec.PeriodAt(400 * simtime.Millisecond); ok {
		t.Fatal("PeriodAt(end) matched; windows are half-open")
	}
}

// feed pushes n completions with the given response into class 0 at
// times spread across [start, start+span).
func feed(e *Engine, class, array, n int, start simtime.Time, span, resp simtime.Duration) {
	for i := 0; i < n; i++ {
		at := start.Add(span * simtime.Duration(i) / simtime.Duration(n))
		e.ObserveAdmission(class, at)
		e.ObserveCompletion(class, array, at, resp)
	}
}

func TestBurnMath(t *testing.T) {
	e, err := NewEngine(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// 80 good + 20 bad in the first 50ms: bad fraction 0.2, budget
	// fraction 0.1 -> burn 2.0 on both windows once evaluated.
	feed(e, 0, 0, 80, 0, 50*simtime.Millisecond, simtime.Millisecond)
	feed(e, 0, 3, 20, 0, 50*simtime.Millisecond, 20*simtime.Millisecond)
	e.Advance(simtime.Time(50 * simtime.Millisecond))

	st := e.Snapshot()
	lat := st.Classes[0].Objectives[0]
	if lat.Good != 80 || lat.Bad != 20 {
		t.Fatalf("good/bad = %d/%d, want 80/20", lat.Good, lat.Bad)
	}
	// Same runtime expression the engine evaluates — bit-identical,
	// including the 1-0.9 rounding (Go constant arithmetic is exact,
	// so spell it with typed values).
	frac := float64(20) / float64(100)
	target := 0.9
	want := frac / (1 - target)
	if lat.FastBurn != want {
		t.Fatalf("fast burn %v, want %v", lat.FastBurn, want)
	}
	if lat.Firing {
		t.Fatal("burn 2.0 below threshold 4 must not fire")
	}
	// Budget: used = 0.2/0.1 = 2 -> clamped to 0 remaining.
	if lat.BudgetRemaining != 0 {
		t.Fatalf("budget remaining %v, want 0", lat.BudgetRemaining)
	}
	if len(e.Alerts()) != 0 {
		t.Fatalf("alerts %d, want 0", len(e.Alerts()))
	}
}

func TestFireAndResolve(t *testing.T) {
	e, err := NewEngine(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1 [0,200ms): healthy traffic fills the slow window with
	// good events.
	feed(e, 0, 0, 200, 0, 200*simtime.Millisecond, simtime.Millisecond)
	e.Advance(simtime.Time(200 * simtime.Millisecond))
	if n := len(e.Alerts()); n != 0 {
		t.Fatalf("healthy phase produced %d alerts", n)
	}

	// Phase 2 [200,300ms): every completion blows the threshold; array
	// 5 serves most of them, array 2 a few.  Burn hits 1/0.1 = 10 > 4
	// on the fast window; the slow window accumulates enough bad to
	// cross too.
	feed(e, 0, 5, 90, simtime.Time(200*simtime.Millisecond), 100*simtime.Millisecond, 30*simtime.Millisecond)
	feed(e, 0, 2, 10, simtime.Time(200*simtime.Millisecond), 100*simtime.Millisecond, 30*simtime.Millisecond)
	e.Advance(simtime.Time(300 * simtime.Millisecond))

	alerts := e.Alerts()
	if len(alerts) == 0 {
		t.Fatal("storm fired no alert")
	}
	fire := alerts[0]
	if fire.Event != EventFire || fire.Class != "gold" || fire.Objective != "lat" {
		t.Fatalf("first alert %+v, want gold/lat fire", fire)
	}
	if fire.FastBurn < 4 || fire.SlowBurn < 4 {
		t.Fatalf("fire burns %v/%v below threshold", fire.FastBurn, fire.SlowBurn)
	}
	if len(fire.TopArrays) == 0 || fire.TopArrays[0].Array != 5 {
		t.Fatalf("top contributor %+v, want array 5 first", fire.TopArrays)
	}

	// Phase 3 [300,500ms): recovery — fast window drains, resolve.
	feed(e, 0, 0, 200, simtime.Time(300*simtime.Millisecond), 200*simtime.Millisecond, simtime.Millisecond)
	e.Advance(simtime.Time(500 * simtime.Millisecond))
	alerts = e.Alerts()
	last := alerts[len(alerts)-1]
	if last.Event != EventResolve {
		t.Fatalf("last alert %+v, want resolve", last)
	}
	if last.FastBurn >= 4 {
		t.Fatalf("resolve fast burn %v not below threshold", last.FastBurn)
	}
	// Sequence numbers are 1..n in order.
	for i, a := range alerts {
		if a.Seq != i+1 {
			t.Fatalf("alert %d has seq %d", i, a.Seq)
		}
	}
}

func TestAvailabilityObjective(t *testing.T) {
	e, err := NewEngine(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Gold availability target 0.99: a 50% rejection rate burns at
	// 0.5/0.01 = 50 on both windows.
	for i := 0; i < 100; i++ {
		at := simtime.Time(simtime.Duration(i) * 2 * simtime.Millisecond)
		if i%2 == 0 {
			e.ObserveAdmission(0, at)
		} else {
			e.ObserveRejection(0, at)
		}
	}
	e.Advance(simtime.Time(200 * simtime.Millisecond))
	var avail *Alert
	for i := range e.Alerts() {
		if a := e.Alerts()[i]; a.Objective == "avail" && a.Event == EventFire {
			avail = &a
			break
		}
	}
	if avail == nil {
		t.Fatal("availability objective never fired")
	}
	if len(avail.TopArrays) != 0 {
		t.Fatalf("rejections attributed to arrays: %+v", avail.TopArrays)
	}
	st := e.Snapshot()
	if st.Classes[0].Rejected != 50 || st.Classes[0].Admitted != 50 {
		t.Fatalf("admitted/rejected = %d/%d, want 50/50", st.Classes[0].Admitted, st.Classes[0].Rejected)
	}
}

func TestEfficiencyFloor(t *testing.T) {
	s := Spec{
		Version:       SpecVersion,
		Name:          "eff",
		FastWindow:    50 * simtime.Millisecond,
		SlowWindow:    100 * simtime.Millisecond,
		EvalInterval:  10 * simtime.Millisecond,
		BurnThreshold: 4,
		Classes: []ClassSpec{{
			Name:       "fleet",
			Objectives: []Objective{{Name: "eff", Kind: KindEfficiency, FloorIOPSPerWatt: 10}},
		}},
	}
	e, err := NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	// No power callback: objective is inert.
	feed(e, 0, 0, 10, 0, 50*simtime.Millisecond, simtime.Millisecond)
	e.Advance(simtime.Time(50 * simtime.Millisecond))
	if n := len(e.Alerts()); n != 0 {
		t.Fatalf("efficiency fired without a power callback: %d alerts", n)
	}

	e, _ = NewEngine(s)
	e.Power = func(start, end simtime.Time) float64 { return 100 } // 100 W flat
	// 10 completions per 50ms fast window = 200 IOPS = 2 IOPS/W < 10.
	feed(e, 0, 0, 20, 0, 100*simtime.Millisecond, simtime.Millisecond)
	e.Advance(simtime.Time(100 * simtime.Millisecond))
	alerts := e.Alerts()
	if len(alerts) == 0 || alerts[0].Event != EventFire || alerts[0].Kind != KindEfficiency {
		t.Fatalf("efficiency floor did not fire: %+v", alerts)
	}
	// Burst well above the floor: 100 in one window = 2000 IOPS = 20/W.
	feed(e, 0, 0, 100, simtime.Time(100*simtime.Millisecond), 50*simtime.Millisecond, simtime.Millisecond)
	e.Advance(simtime.Time(150 * simtime.Millisecond))
	alerts = e.Alerts()
	if last := alerts[len(alerts)-1]; last.Event != EventResolve {
		t.Fatalf("efficiency floor did not resolve: %+v", last)
	}
}

// TestFeedOrderInvariance is the determinism core: shuffling the feed
// order of one barrier's events never changes the alert stream, since
// bucketing is by timestamp.
func TestFeedOrderInvariance(t *testing.T) {
	type ev struct {
		class, array int
		at           simtime.Time
		resp         simtime.Duration
	}
	var evs []ev
	rng := rand.New(rand.NewPCG(42, 0))
	for i := 0; i < 400; i++ {
		at := simtime.Time(rng.Int64N(int64(200 * simtime.Millisecond)))
		resp := simtime.Duration(rng.Int64N(int64(40 * simtime.Millisecond)))
		evs = append(evs, ev{class: int(rng.Int64N(2)), array: int(rng.Int64N(8)), at: at, resp: resp})
	}
	run := func(order []int) []byte {
		e, err := NewEngine(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		// Feed in two barriers of 100ms each, shuffled inside each.
		for _, barrier := range []simtime.Time{simtime.Time(100 * simtime.Millisecond), simtime.Time(200 * simtime.Millisecond)} {
			for _, i := range order {
				v := evs[i]
				if v.at < barrier && v.at >= barrier.Add(-100*simtime.Millisecond) {
					e.ObserveAdmission(v.class, v.at)
					e.ObserveCompletion(v.class, v.array, v.at, v.resp)
				}
			}
			e.Advance(barrier)
		}
		var buf bytes.Buffer
		if err := e.WriteAlerts(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fwd := make([]int, len(evs))
	rev := make([]int, len(evs))
	shuf := make([]int, len(evs))
	for i := range evs {
		fwd[i], rev[len(evs)-1-i], shuf[i] = i, i, i
	}
	rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
	a, b, c := run(fwd), run(rev), run(shuf)
	if !bytes.Equal(a, b) || !bytes.Equal(a, c) {
		t.Fatal("alert stream depends on feed order")
	}
	if len(a) == 0 {
		t.Fatal("invariance fixture produced no alerts; weaken the traffic")
	}
}

func TestAlertsRoundTrip(t *testing.T) {
	e, err := NewEngine(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	feed(e, 0, 0, 200, 0, 200*simtime.Millisecond, simtime.Millisecond)
	feed(e, 0, 1, 300, simtime.Time(200*simtime.Millisecond), 100*simtime.Millisecond, 30*simtime.Millisecond)
	e.Advance(simtime.Time(300 * simtime.Millisecond))
	var buf bytes.Buffer
	if err := e.WriteAlerts(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAlerts(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := e.Alerts()
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("round-trip %d alerts, want %d (>0)", len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != want[i].Seq || got[i].Event != want[i].Event ||
			got[i].At != want[i].At || got[i].BudgetRemaining != want[i].BudgetRemaining {
			t.Fatalf("alert %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestLoadSpecExampleAndFile(t *testing.T) {
	s, err := LoadSpec("example")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "example" || len(s.Classes) != 3 {
		t.Fatalf("example spec %q with %d classes", s.Name, len(s.Classes))
	}
	if _, err := LoadSpec("/nonexistent/spec.json"); err == nil {
		t.Fatal("missing spec file accepted")
	}
}

func TestClientOfSector(t *testing.T) {
	region := int64(ClientRegionBytes) / 512
	if got := ClientOfSector(0); got != 0 {
		t.Fatalf("sector 0 -> client %d", got)
	}
	if got := ClientOfSector(region - 1); got != 0 {
		t.Fatalf("last sector of region 0 -> client %d", got)
	}
	if got := ClientOfSector(region * 7); got != 7 {
		t.Fatalf("region 7 -> client %d", got)
	}
}
