package main

import (
	"reflect"
	"strings"
	"testing"

	"refrint/internal/config"
	"refrint/internal/sweep"
)

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 0, ok: false},
		{n: 19, ok: false}, // 9.5 beyond the median
		{n: 20, want: 50, ok: true},
		{n: 99, want: 50, ok: true}, // 9.9 beyond p90
		{n: 100, want: 90, ok: true},
		{n: 999, want: 90, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := supportedPercentile(tc.n, 50, 90, 99, 99.9)
		if ok != tc.ok || got != tc.want {
			t.Errorf("supportedPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNoteReportsCountAndShortfall(t *testing.T) {
	note := percentileNote("hit_ms", 500, 99)
	for _, want := range []string{"hit_ms", "500 samples", "p90", "p99 is under-sampled"} {
		if !strings.Contains(note, want) {
			t.Errorf("note %q lacks %q", note, want)
		}
	}
	if note := percentileNote("hit_ms", 5000, 99); strings.Contains(note, "under-sampled") {
		t.Errorf("5000 samples support p99, got %q", note)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 5 {
		t.Errorf("p90 = %v, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestNSPerAccessTakesEachCellsMedian(t *testing.T) {
	// Two cells over three passes; each has one slow run, in different
	// passes, which a median over pass totals would not drop.
	o := serialOut{
		cellNS:  [][]float64{{100, 900, 110}, {205, 200, 800}},
		cellOps: []int64{1, 2},
	}
	if got, want := o.nsPerAccess(), (110.0+205)/3; got != want {
		t.Errorf("nsPerAccess = %v, want %v", got, want)
	}
	if got := (serialOut{}).nsPerAccess(); got != 0 {
		t.Errorf("nsPerAccess with no passes = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},   // overlaps a: 10..50 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},  // only 90..100 lies inside op
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},   // grandchild: charged to a, not op
		{ID: 6, Parent: 1, Name: "e", Start: 200, End: 300}, // wholly outside op
	}
	got := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 30 - 5, 3: 20, 4: 40, 5: 5, 6: 100}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSummarizeSumsSelfTimeByName(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10e6},
		{ID: 2, Parent: 1, Name: "child", Start: 0, End: 4e6},
		{ID: 3, Name: "op", Start: 20e6, End: 22e6},
	}
	sum := summarize(spans)
	if len(sum) != 2 || sum[0].Name != "op" || sum[0].Count != 2 || sum[0].SelfMS != 8 || sum[0].TotalMS != 12 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.id()
	tr.record(id, 0, "op", "x", tr.now(), tr.now())
	if tr.add(0, "op", "y", 0, 1) != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
}

// smallCell is cheap enough to simulate in a unit test.
var smallCell = cellSpec{App: "Blackscholes", Policy: config.RefrintWB(32, 32), RetentionUS: 50, Effort: 0.02}

func TestPerturbedDigestFailsTheOperation(t *testing.T) {
	res, err := smallCell.simulate(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	d, err := resultDigest(res)
	if err != nil {
		t.Fatal(err)
	}
	label := smallCell.Label()

	var good outcome
	good.op(newSerialChecker(map[string]string{label: d}).check(smallCell, res))
	if good.attempted.Load() != 1 || good.failed.Load() != 0 {
		t.Fatalf("matching digest: attempted %d failed %d", good.attempted.Load(), good.failed.Load())
	}

	perturbed := []byte(d)
	perturbed[0] ^= 1
	var bad outcome
	bad.op(newSerialChecker(map[string]string{label: string(perturbed)}).check(smallCell, res))
	if bad.attempted.Load() != 1 || bad.failed.Load() != 1 {
		t.Fatalf("perturbed digest: attempted %d failed %d", bad.attempted.Load(), bad.failed.Load())
	}
}

func TestRepeatWithDifferentDigestFails(t *testing.T) {
	res, err := smallCell.simulate(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	k := newSerialChecker(nil)
	if p := k.check(smallCell, res); len(p) != 0 {
		t.Fatalf("first run: %v", p)
	}
	if p := k.check(smallCell, res); len(p) != 0 {
		t.Fatalf("identical repeat: %v", p)
	}
	res.Cycles++
	if p := k.check(smallCell, res); len(p) == 0 {
		t.Fatal("a repeat with a different result passed")
	}
}

func TestIdentityViolationsAreReported(t *testing.T) {
	res, err := smallCell.simulate(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if p := identityProblems(smallCell, res.Stats); len(p) != 0 {
		t.Fatalf("real result breaks an identity: %v", p)
	}
	res.Stats.PeriodicGroupScans = 1
	res.Stats.MemOps++
	if p := identityProblems(smallCell, res.Stats); len(p) != 2 {
		t.Fatalf("want 2 problems, got %v", p)
	}
}

func TestCommittedDigestMatchesSimulator(t *testing.T) {
	committed, err := loadCommittedDigests()
	if err != nil {
		t.Fatal(err)
	}
	if committed.Seed != defaultSeed || len(committed.Cells) != len(serialCells()) {
		t.Fatalf("committed digests: seed %d, %d cells", committed.Seed, len(committed.Cells))
	}
	cell := cellSpec{App: "Blackscholes", Policy: config.SRAMBaseline, RetentionUS: serialRetentionUS, Effort: 1}
	res, err := cell.simulate(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := resultDigest(res); d != committed.Cells[cell.Label()] {
		t.Fatalf("%s: digest %s, committed %s", cell.Label(), d, committed.Cells[cell.Label()])
	}
}

func TestCellhitFailsUnlessEveryCellIsAStoreHit(t *testing.T) {
	for _, c := range []struct {
		lookups, hits int64
		ok            bool
	}{
		{18, 18, true},
		{18, 17, false}, // one cell re-simulated
		{17, 17, false}, // one cell never looked up
		{0, 0, false},   // the execution never reached the store
	} {
		r := &execRecord{}
		r.lookups.Store(c.lookups)
		r.hits.Store(c.hits)
		if got := len(r.storeReadProblems(18)) == 0; got != c.ok {
			t.Errorf("%d lookups, %d hits of 18 cells: passes %v, want %v", c.lookups, c.hits, got, c.ok)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	if coldFirstSeed(7) != coldFirstSeed(7) || coldFirstSeed(7) == coldFirstSeed(8) {
		t.Error("cold sweep seeds do not follow the workload seed")
	}
	p1, g1 := warmSeeds(7)
	p2, g2 := warmSeeds(7)
	p3, g3 := warmSeeds(8)
	if p1 != p2 || g1 != g2 || (p1 == p3 && g1 == g3) {
		t.Error("warm seeds do not follow the workload seed")
	}
	if !reflect.DeepEqual(planHits(7, 3, 1), planHits(7, 3, 1)) || reflect.DeepEqual(planHits(7, 3, 1), planHits(8, 3, 1)) {
		t.Error("hit plans do not follow the workload seed")
	}

	draw := func(genSeed int64) []any {
		g := newSubsetGen(genSeed, p1)
		var out []any
		for i := 0; i < 50; i++ {
			req, key, err := g.next(cellhitShape, "background")
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, req, key)
		}
		return out
	}
	a, b := draw(g1), draw(g1)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same generator seed drew different sweeps")
	}
	if reflect.DeepEqual(a, draw(g3)) {
		t.Error("different generator seeds drew the same sweeps")
	}

	s1, err := recordStreams(7)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := recordStreams(7)
	for i := range s1 {
		if !reflect.DeepEqual(s1[i].accesses, s2[i].accesses) {
			t.Errorf("stream %d differs between two recordings at one seed", i)
		}
	}
}

func TestSubsetGeneratorNeverRepeatsAndStaysInPool(t *testing.T) {
	g := newSubsetGen(1, 1)
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		req, key, err := g.next(cellhitShape, "background")
		if err != nil {
			t.Fatal(err)
		}
		if seen[key] {
			t.Fatalf("sweep %d repeats key %s", i, key)
		}
		seen[key] = true
		if len(req.Apps) != cellhitShape.apps || len(req.RetentionTimesUS) != cellhitShape.retentions || len(req.Policies) != cellhitShape.policies {
			t.Fatalf("sweep %d has the wrong shape: %+v", i, req)
		}
		want := expectedCells(req)
		if len(want) != cellhitShape.apps*(cellhitShape.retentions*cellhitShape.policies+1) {
			t.Fatalf("sweep %d covers %d cells", i, len(want))
		}
	}
}

func TestColdRequestIsThirtyCells(t *testing.T) {
	if n := len(expectedCells(coldRequest(1))); n != 30 {
		t.Fatalf("cold request covers %d cells, want 30", n)
	}
}

func TestSampleCheckCatchesWrongFigures(t *testing.T) {
	cell := cellSpec{App: "Blackscholes", Policy: config.SRAMBaseline, Effort: coldEffort}
	res, err := cell.simulate(3)
	if err != nil {
		t.Fatal(err)
	}
	f := factsOfResult(res)
	run := exportRunOf("Blackscholes", "SRAM", 0, f)
	if p := sampleProblems(run, coldEffort, 3); len(p) != 0 {
		t.Fatalf("faithful run flagged: %v", p)
	}
	run.DRAMAccesses++
	if p := sampleProblems(run, coldEffort, 3); len(p) != 1 {
		t.Fatalf("altered run passed: %v", p)
	}
}

func exportRunOf(app, policy string, ret float64, f runFacts) sweep.ExportRun {
	return sweep.ExportRun{
		App: app, Policy: policy, RetentionUS: ret,
		Cycles: f.Cycles, Instructions: f.Instructions, MemOps: f.MemOps,
		MemoryEnergyJ: f.MemoryEnergyJ, TotalEnergyJ: f.TotalEnergyJ,
		OnChipRefreshes: f.OnChipRefreshes, SentryInterrupts: f.SentryInterrupts,
		PolicyWritebacks: f.PolicyWritebacks, PolicyInvalidates: f.PolicyInvalidates,
		DRAMAccesses: f.DRAMAccesses,
	}
}
