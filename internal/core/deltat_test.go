package core

import (
	"testing"

	"cchunter/internal/trace"
)

func TestNewAuditorProgramsPaperDeltaT(t *testing.T) {
	aud, err := NewAuditor(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	defer aud.Release()
	if aud.DeltaT(trace.KindBusLock) != DeltaTBus || aud.DeltaT(trace.KindDivContention) != DeltaTDivider {
		t.Errorf("no kinds: want the classic bus/divider pair at the paper Δt, got bus=%d div=%d",
			aud.DeltaT(trace.KindBusLock), aud.DeltaT(trace.KindDivContention))
	}
	if aud.ConflictTrain() == nil {
		t.Error("conflict monitoring not enabled")
	}

	ring, err := NewAuditor(1_000_000, trace.KindRingContention)
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Release()
	if ring.DeltaT(trace.KindRingContention) != DeltaTRing || ring.DeltaT(trace.KindBusLock) != 0 {
		t.Error("explicit kinds must replace the classic pair")
	}

	if _, err := NewAuditor(1_000_000, trace.KindBusLock, trace.KindDivContention, trace.KindTLBConflict); err == nil {
		t.Error("three kinds fit in two monitoring slots")
	}
}
