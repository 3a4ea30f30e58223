package dra

import (
	"math"
	"strings"
	"testing"
)

func TestFacadeScenarioAndTrace(t *testing.T) {
	r, err := UniformRouter(DRA, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewTraceRecorder(32)
	r.SetTracer(rec)
	var sc Scenario
	sc.Fail(100, 0, SRU).Repair(200, 0)
	samples := sc.Play(r)
	if len(samples) != 2 || !samples[0].Up[0] || !samples[1].Up[0] {
		t.Fatalf("timeline:\n%s", TimelineString(samples))
	}
	if rec.Len() == 0 {
		t.Fatal("trace empty")
	}
	if !strings.Contains(TimelineString(samples), "fail LC0 SRU") {
		t.Fatal("timeline text")
	}
}

func TestFacadeSensitivity(t *testing.T) {
	ss, err := ReliabilitySensitivity(PaperModelParams(9, 4), 40000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 6 {
		t.Fatalf("entries = %d", len(ss))
	}
}

func TestFacadeSparing(t *testing.T) {
	m, err := SparingReliabilityModel(SparingParams{LambdaLC: 2e-5, Spares: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := m.ReliabilityAt(40000); r <= math.Exp(-0.8) {
		t.Fatalf("1:1 sparing R = %g not above bare LC", r)
	}
}

func TestFacadeVariantsOrdered(t *testing.T) {
	p := PaperModelParams(6, 3)
	var rs [3]float64
	for i, v := range []ReliabilityModelVariant{VariantConservative, VariantPrimary, VariantOptimistic} {
		m, err := DRAReliabilityVariant(v, p)
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = m.ReliabilityAt(40000)
	}
	if !(rs[0] <= rs[1] && rs[1] <= rs[2]) {
		t.Fatalf("variant ordering broken: %v", rs)
	}
}

func TestFacadeDegradationCurve(t *testing.T) {
	c := DegradationCurve(6, 0.15, 10e9)
	if len(c) != 5 {
		t.Fatalf("curve = %v", c)
	}
	for _, f := range c {
		if math.Abs(f-1) > 1e-9 {
			t.Fatalf("curve = %v", c)
		}
	}
}
