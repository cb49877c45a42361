package core

import (
	"context"

	"cchunter/internal/auditor"
	"cchunter/internal/trace"
)

// paperWindow is the default detector's burst analysis window.
var paperWindow = DefaultDetectorConfig(1, 0).WindowQuanta

// analyzeBursts runs AnalyzeBursts in a borrowed workspace.
func analyzeBursts(records []auditor.QuantumHistogram, windowQuanta int) BurstAnalysis {
	ws := BorrowWorkspace()
	defer ws.Release()
	return AnalyzeBursts(records, windowQuanta, ws)
}

// analyzeOscillation runs AnalyzeOscillation in a borrowed workspace.
func analyzeOscillation(train *trace.Train, cfg OscillationConfig) OscillationAnalysis {
	ws := BorrowWorkspace()
	defer ws.Release()
	return AnalyzeOscillation(train, cfg, ws)
}

// analyzeWindows collects every window analysis AnalyzeOscillationWindows
// folds, in a borrowed workspace.
func analyzeWindows(train *trace.Train, start, end, window uint64, cfg OscillationConfig) []OscillationAnalysis {
	ws := BorrowWorkspace()
	defer ws.Release()
	var out []OscillationAnalysis
	err := AnalyzeOscillationWindows(context.Background(), train, start, end, window, cfg, ws,
		func(_ uint64, a OscillationAnalysis) { out = append(out, a) })
	if err != nil {
		panic(err) // a background context is never done
	}
	return out
}
