package core

import "math"

var ln2 = math.Ln2

func ln(x float64) float64    { return math.Log(x) }
func sqrtf(x float64) float64 { return math.Sqrt(x) }
func absf(x float64) float64  { return math.Abs(x) }
