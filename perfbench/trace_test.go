package main

import (
	"testing"

	"repro/snet"
)

func TestDeriveSpansPairsByKey(t *testing.T) {
	r := newRecorder(16, func(string, uint8, *snet.Record) int64 { return 0 })
	at := func(t int64, name string, dir uint8, key int64) event {
		return event{t: t, key: key, node: r.id(name), dir: dir}
	}
	ev := []event{
		at(0, "http", evBegin, 1),
		at(1, "codec.decode", evBegin, 1),
		at(3, "codec.decode", evEnd, 1),
		at(4, "box", evIn, 7),
		at(5, "box", evIn, 8), // a second call, concurrent with the first
		at(6, "box", evOut, 7),
		at(9, "box", evOut, 8),
		at(10, "box", evOut, 7), // the first call's last output
		at(11, "box", evIn, 9),  // emits nothing: no span
		at(12, "http", evEnd, 1),
	}
	spans := deriveSpans(r, ev, func(name string) string {
		if name == "codec.decode" {
			return "http"
		}
		return ""
	})
	got := map[string]span{}
	for _, s := range spans {
		got[s.Name+"/"+string(rune('0'+s.Key))] = s
	}
	want := map[string][2]int64{"http/1": {0, 12}, "codec.decode/1": {1, 3}, "box/7": {4, 10}, "box/8": {5, 9}}
	if len(got) != len(want) {
		t.Fatalf("spans %+v; want %v", spans, want)
	}
	for k, w := range want {
		if s := got[k]; s.Start != w[0] || s.End != w[1] {
			t.Errorf("%s = [%d,%d], want %v", k, s.Start, s.End, w)
		}
	}
	self := selfTimes(spans)
	if h := self["http"]; len(h) != 1 || h[0] != 0.010 { // 12ns minus the 2ns child, in us
		t.Errorf("http self = %v, want [0.010]", h)
	}
}

func TestUnionCoverage(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: 20, End: 30}, {Start: 40, End: 50}}
	if got := unionCoverage(spans, 0, 45); got != 15+10+5 {
		t.Errorf("coverage = %d, want 30", got)
	}
}

func TestRecorderDropsWhenFullOrOff(t *testing.T) {
	r := newRecorder(2, nil)
	r.add("a", evPoint, 1)
	r.on.Store(false)
	r.add("a", evPoint, 2)
	r.on.Store(true)
	r.add("a", evPoint, -1) // unsampled key
	r.add("a", evPoint, 3)
	r.add("a", evPoint, 4)
	if ev := r.events(); len(ev) != 2 || ev[0].key != 1 || ev[1].key != 3 || r.dropped.Load() != 1 {
		t.Errorf("events %+v dropped %d; want keys 1, 3 and one drop", ev, r.dropped.Load())
	}
}
