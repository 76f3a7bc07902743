package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// parsedEvent covers both "X" and "M" events for validation.
type parsedEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Bytes  int64  `json:"bytes"`
	} `json:"args"`
}

type parsedTrace struct {
	TraceEvents     []parsedEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// TestChromeTraceWellFormed validates JSON well-formedness and that spans on
// each tid nest strictly (the trace-event contract Perfetto relies on),
// including overlapping spans from concurrent workers being split to lanes.
func TestChromeTraceWellFormed(t *testing.T) {
	recs := []Record{
		{ID: 1, Parent: 0, Cat: CatRun, Name: "run", Start: 0, Dur: 100_000},
		{ID: 2, Parent: 1, Cat: CatBlock, Name: "block", Start: 1_000, Dur: 98_000},
		// Two overlapping instruction spans (concurrent parfor workers):
		// they cannot share a lane.
		{ID: 3, Parent: 2, Cat: CatInstr, Name: "ba+*", Start: 2_000, Dur: 50_000},
		{ID: 4, Parent: 2, Cat: CatInstr, Name: "uak+", Start: 30_000, Dur: 60_000},
		{ID: 5, Parent: 3, Cat: CatDist, Name: "mm", Start: 10_000, Dur: 10_000, Bytes: 4096},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var tr parsedTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	ids := map[uint64]bool{}
	var spans []parsedEvent
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
			spans = append(spans, ev)
			ids[ev.Args.ID] = true
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if len(spans) != len(recs) {
		t.Fatalf("got %d span events, want %d", len(spans), len(recs))
	}
	for _, ev := range spans {
		if ev.Args.Parent != 0 && !ids[ev.Args.Parent] {
			t.Errorf("span %d references missing parent %d", ev.Args.ID, ev.Args.Parent)
		}
	}
	// Per-tid strict nesting: replay each lane with a stack.
	byTid := map[int][]parsedEvent{}
	tids := []int{}
	for _, ev := range spans {
		if _, ok := byTid[ev.Tid]; !ok {
			tids = append(tids, ev.Tid)
		}
		byTid[ev.Tid] = append(byTid[ev.Tid], ev)
	}
	if len(tids) < 2 {
		t.Fatalf("overlapping spans were not split to separate lanes (got %d lanes)", len(tids))
	}
	for _, tid := range tids {
		var stack []parsedEvent
		for _, ev := range byTid[tid] { // events are already sorted by start
			for len(stack) > 0 && stack[len(stack)-1].Ts+stack[len(stack)-1].Dur <= ev.Ts {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && stack[len(stack)-1].Ts+stack[len(stack)-1].Dur < ev.Ts+ev.Dur {
				t.Fatalf("tid %d: span %q [%v,%v] overlaps open span %q without nesting",
					tid, ev.Name, ev.Ts, ev.Ts+ev.Dur, stack[len(stack)-1].Name)
			}
			stack = append(stack, ev)
		}
	}
}

// TestChromeTraceGolden pins the exact serialization of a tiny trace so
// format drift is caught deliberately.
func TestChromeTraceGolden(t *testing.T) {
	recs := []Record{
		{ID: 7, Parent: 0, Cat: CatRun, Name: "run", Start: 0, Dur: 2_000},
		{ID: 8, Parent: 7, Cat: CatInstr, Name: "ba+*", Start: 500, Dur: 1_000, Bytes: 64},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"systemds-go"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"main"}},` +
		`{"name":"run","cat":"run","ph":"X","ts":0,"dur":2,"pid":1,"tid":0,"args":{"id":7}},` +
		`{"name":"ba+*","cat":"instr","ph":"X","ts":0.5,"dur":1,"pid":1,"tid":0,"args":{"id":8,"parent":7,"bytes":64}}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("golden mismatch:\ngot:  %s\nwant: %s", got, want)
	}
}
