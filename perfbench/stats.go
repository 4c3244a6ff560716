package main

import (
	"errors"
	"io/fs"
	"path/filepath"
	"sort"
)

// tailFloor is how many samples must lie beyond a percentile before it
// is reported: fewer would make the figure a guess about one or two
// outliers.
const tailFloor = 10

// median returns the middle of xs (mean of the two middles for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank permille-th percentile of xs
// (990 = p99) and whether it may be reported: at least tailFloor
// samples must rank above it. With too few samples it returns ok=false
// and no value, so a thin tail is omitted rather than guessed.
func percentile(xs []float64, permille int) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || permille <= 0 || permille > 1000 {
		return 0, false
	}
	idx := (n*permille+999)/1000 - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < tailFloor {
		return 0, false
	}
	return sortedCopy(xs)[idx], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// outcome tallies the ops a run attempted and how the failed ones
// failed: refused by the scheduler (admission or budget), errored, or
// answered but disagreeing with the in-memory oracle.
type outcome struct {
	attempted, refused, errored, mismatched int
}

func (o outcome) failed() int { return o.refused + o.errored + o.mismatched }

// failedFrac is failed ops over attempted ops; every kind of failure
// counts, so a refused op is as missing as a wrong one.
func (o outcome) failedFrac() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed()) / float64(o.attempted)
}

func (o *outcome) add(p outcome) {
	o.attempted += p.attempted
	o.refused += p.refused
	o.errored += p.errored
	o.mismatched += p.mismatched
}

// storedBytesPerEdge divides the bytes a store holds for a graph by its
// edge count.
func storedBytesPerEdge(bytes int64, edges int) (float64, error) {
	if edges <= 0 {
		return 0, errors.New("stored bytes per edge: no edges")
	}
	if bytes <= 0 {
		return 0, errors.New("stored bytes per edge: store holds no bytes")
	}
	return float64(bytes) / float64(edges), nil
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		// Background compaction may retire a file mid-walk.
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
