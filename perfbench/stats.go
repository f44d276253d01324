package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p90 needs at least 100 samples, a p99 at least 1000.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses a percentile with fewer than minBeyond samples above it, so a
// tail figure is never read off a handful of points.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// digest hashes a sequence of result encodings into one hex string. Each
// part is length-prefixed so that moving bytes between parts changes the
// digest.
func digest(parts [][]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameDigest reports the first repetition whose digest differs from the
// first one's; ok when all agree.
func sameDigest(ds []string) (idx int, ok bool) {
	for i, d := range ds {
		if d != ds[0] {
			return i, false
		}
	}
	return 0, true
}
