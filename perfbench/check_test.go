package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/workloads"
	"repro/snet"
	"repro/snet/service"
)

func webResponse(id int, url string) *snet.Record {
	resp, status := workloads.WebPipeReference(url)
	return snet.NewRecord().SetField("resp", resp).SetTag("id", id).SetTag("status", status)
}

func TestWebpipeWireCheck(t *testing.T) {
	url := "/missing/page"
	good := service.GenericCodec{}.Encode(webResponse(3, url))
	if err := checkWebpipeWire(good, 3, url); err != nil {
		t.Fatalf("reference response rejected: %v", err)
	}
	corrupt := []func(w *service.RecordJSON){
		func(w *service.RecordJSON) { w.Fields["resp"] += "x" },
		func(w *service.RecordJSON) { w.Tags["status"] = 200 },
		func(w *service.RecordJSON) { w.Tags["id"] = 4 },
		func(w *service.RecordJSON) { w.Fields["url"] = url },
		func(w *service.RecordJSON) { delete(w.Tags, "status") },
	}
	for i, f := range corrupt {
		w := service.GenericCodec{}.Encode(webResponse(3, url))
		f(&w)
		if err := checkWebpipeWire(w, 3, url); !errors.Is(err, errDiverged) {
			t.Errorf("corruption %d accepted: %v", i, err)
		}
	}
}

func TestWebpipeStreamCheckCountsFailures(t *testing.T) {
	urls := webpipeURLs()
	outs := func() []*snet.Record {
		var rs []*snet.Record
		for i := len(urls) - 1; i >= 0; i-- { // any order is fine
			rs = append(rs, webResponse(i, urls[i]))
		}
		return rs
	}
	if failed, err := checkWebpipeOutputs(outs(), urls, 0); failed != 0 {
		t.Fatalf("reference stream: %d failed: %v", failed, err)
	}
	wrong := outs()
	wrong[0].SetField("resp", "500 corrupted")
	if failed, err := checkWebpipeOutputs(wrong, urls, 0); failed != 1 || !errors.Is(err, errDiverged) {
		t.Errorf("corrupted output: %d failed, %v; want 1", failed, err)
	}
	missing := outs()[1:]
	if failed, _ := checkWebpipeOutputs(missing, urls, 0); failed != 1 {
		t.Errorf("missing output: %d failed, want 1", failed)
	}
	dup := append(outs(), webResponse(0, urls[0]))
	if failed, _ := checkWebpipeOutputs(dup, urls, 0); failed != 1 {
		t.Errorf("duplicated output: %d failed, want 1", failed)
	}
}

func TestWavefrontCheck(t *testing.T) {
	b := newWavefrontBench(5)
	j, err := b.job(0)
	if err != nil {
		t.Fatal(err)
	}
	want := workloads.WavefrontReference(wavefrontN, 5)
	good := snet.NewRecord().SetField("result", want).SetTag("done", 1)
	if failed, err := j.check([]*snet.Record{good}); failed != 0 {
		t.Fatalf("reference result rejected: %v", err)
	}
	bad := snet.NewRecord().SetField("result", want+1).SetTag("done", 1)
	if failed, err := j.check([]*snet.Record{bad}); failed != j.ops || !errors.Is(err, errDiverged) {
		t.Errorf("wrong result: %d failed, %v; want all %d cells", failed, err, j.ops)
	}
	if failed, _ := j.check(nil); failed != j.ops {
		t.Errorf("no result: %d failed, want %d", failed, j.ops)
	}
}

// A run with a failed op reports correct=false, keeps the counts, and
// exits nonzero.
func TestReportFailsOnDivergence(t *testing.T) {
	o := newOutcome()
	for _, s := range endToEnd {
		o.metrics[s.name] = 1
	}
	o.attempted = 10
	o.fail(1, errors.New("request 3: wrong: "+errDiverged.Error()))
	var out, errOut bytes.Buffer
	code := report(&out, &errOut, config{workload: "wavefront", seed: 1, seconds: 1}, o)
	if code == 0 {
		t.Error("exit code 0 with a failed op")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if res.Correct || res.Attempted != 10 || res.Failed != 1 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result = %+v", res)
	}
}

func TestReportRefusesMissingMetric(t *testing.T) {
	o := newOutcome()
	o.attempted = 1
	var out, errOut bytes.Buffer
	if code := report(&out, &errOut, config{workload: "wavefront"}, o); code == 0 {
		t.Error("a run missing end-to-end metrics exited 0")
	}
}

// The metric lists in the code are the ones BENCHMARK.json declares.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, code %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	if len(def.Workloads) != len(workloadNames) {
		t.Fatalf("workloads: %v vs %v", def.Workloads, workloadNames)
	}
	for i, w := range def.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloadNames[i])
		}
	}
}
