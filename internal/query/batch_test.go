package query

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/placement"
)

func batchExecutor(t *testing.T, n int, seed int64) *Executor {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := buildTable("L", n, 100, randomRows(rng, 400, 40), seed+1)
	r := buildTable("R", n, 100, randomRows(rng, 600, 40), seed+2)
	e, err := NewExecutor(Config{Nodes: n, Scheduler: placement.CCF{}}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExecuteBatchEmpty(t *testing.T) {
	e := batchExecutor(t, 4, 1)
	res, err := e.ExecuteBatch(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || len(res.Results) != 0 {
		t.Errorf("empty batch: %+v", res)
	}
}

func TestExecuteBatchMatchesIndividualResults(t *testing.T) {
	e := batchExecutor(t, 5, 2)
	planA := &JoinOp{Left: &Scan{Table: "L"}, Right: &Scan{Table: "R"}}
	planB := &AggOp{Input: &Scan{Table: "R"}, Partial: true}
	batch, err := e.ExecuteBatch([]BatchJob{
		{Name: "a", Plan: planA},
		{Name: "b", Plan: planB},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := e.Execute(planA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch.Results[0].Output.Gather(), solo.Output.Gather()) {
		t.Error("batch logical result differs from solo execution")
	}
}

func TestExecuteBatchMakespanBelowSequential(t *testing.T) {
	// Several jobs on the shared fabric must finish no later than strictly
	// one-after-another execution (work conservation + overlap).
	e := batchExecutor(t, 6, 3)
	var jobs []BatchJob
	for i := 0; i < 4; i++ {
		jobs = append(jobs, BatchJob{
			Name: "job", Arrival: 0,
			Plan: &AggOp{Input: &JoinOp{Left: &Scan{Table: "L"}, Right: &Scan{Table: "R"}}},
		})
	}
	res, err := e.ExecuteBatch(jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan > res.SequentialTimeSec*1.001 {
		t.Errorf("batch makespan %g exceeds sequential %g", res.Makespan, res.SequentialTimeSec)
	}
	for ji, c := range res.JobCompletion {
		if c <= 0 {
			t.Errorf("job %d completion = %g, want positive", ji, c)
		}
		if c > res.Makespan+1e-9 {
			t.Errorf("job %d completes at %g after makespan %g", ji, c, res.Makespan)
		}
	}
}

func TestExecuteBatchStagesOrdered(t *testing.T) {
	// A two-stage job (join then re-keyed aggregate) must not start its
	// aggregate shuffle before the join shuffle finishes; with a second
	// heavy job contending, completion reflects the chaining.
	e := batchExecutor(t, 4, 4)
	twoStage := &AggOp{Input: &MapOp{
		Input: &JoinOp{Left: &Scan{Table: "L"}, Right: &Scan{Table: "R"}},
		F:     func(r Row) Row { return Row{Key: r.Key % 3, Value: r.Value} },
	}}
	res, err := e.ExecuteBatch([]BatchJob{{Name: "2stage", Plan: twoStage}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Results[0].TotalTimeSec
	if math.Abs(res.Makespan-sum) > 1e-6*sum {
		t.Errorf("single chained job: makespan %g != sum of its stages %g", res.Makespan, sum)
	}
}

func TestExecuteBatchArrivalValidation(t *testing.T) {
	e := batchExecutor(t, 4, 5)
	// NaN passes every ordering comparison and +Inf is no instant the clock
	// reaches: the error must name the arrival, not the scheduler the
	// simulator would blame after spinning on it.
	for _, bad := range []float64{-2, math.NaN(), math.Inf(1)} {
		_, err := e.ExecuteBatch([]BatchJob{{Plan: &AggOp{Input: &Scan{Table: "L"}}, Arrival: bad}}, nil)
		if err == nil || !strings.Contains(err.Error(), "arrival") {
			t.Errorf("arrival %g: err = %v, want it rejected as an arrival", bad, err)
		}
	}
	if _, err := e.ExecuteBatch([]BatchJob{{Plan: &Scan{Table: "nope"}}}, nil); err == nil {
		t.Error("accepted unknown table")
	}
}

func TestExecuteBatchScanOnlyJob(t *testing.T) {
	// A plan with no shuffle stages completes instantly at its arrival.
	e := batchExecutor(t, 4, 6)
	res, err := e.ExecuteBatch([]BatchJob{{Name: "scan", Plan: &Scan{Table: "L"}, Arrival: 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobCompletion[0] != 3 {
		t.Errorf("scan-only completion = %g, want its arrival 3", res.JobCompletion[0])
	}
	if res.Makespan != 0 {
		t.Errorf("makespan = %g for a networkless batch, want 0", res.Makespan)
	}
}

func TestExecuteBatchDisjointJobsOverlap(t *testing.T) {
	// Two identical single-stage jobs whose shuffles use overlapping ports
	// under SEBF still satisfy: makespan < sum (overlap where possible) —
	// and with per-flow fair, too. Compare schedulers for sanity.
	e := batchExecutor(t, 8, 7)
	jobs := []BatchJob{
		{Name: "a", Plan: &AggOp{Input: &Scan{Table: "L"}}},
		{Name: "b", Plan: &AggOp{Input: &Scan{Table: "R"}}},
	}
	varys, err := e.ExecuteBatch(jobs, coflow.NewVarys())
	if err != nil {
		t.Fatal(err)
	}
	fair, err := e.ExecuteBatch(jobs, coflow.PerFlowFair{})
	if err != nil {
		t.Fatal(err)
	}
	if varys.Makespan > varys.SequentialTimeSec {
		t.Errorf("varys batch makespan %g > sequential %g", varys.Makespan, varys.SequentialTimeSec)
	}
	// Work conservation: both schedulers deliver the same bytes; makespan
	// on a shared bottleneck is equal up to scheduling order effects.
	if fair.Makespan < varys.Makespan*0.5 || fair.Makespan > varys.Makespan*2 {
		t.Errorf("schedulers wildly diverge: varys %g vs fair %g", varys.Makespan, fair.Makespan)
	}
}
