package main

import "fmt"

// delivery is the exactly-once verdict over one run's items.
type delivery struct {
	Lost       int // acknowledged as inserted, never delivered
	Duplicated int // extra deliveries of one id
	Phantom    int // delivered but never acknowledged as inserted
	Corrupt    int // delivered value not the one inserted
}

func (d delivery) failures() int { return d.Lost + d.Duplicated + d.Phantom + d.Corrupt }

func (d delivery) String() string {
	return fmt.Sprintf("lost=%d duplicated=%d phantom=%d corrupt=%d", d.Lost, d.Duplicated, d.Phantom, d.Corrupt)
}

const (
	ackedBit  = 0x80
	countMask = 0x7f
)

// checkDelivery compares the ids acknowledged as inserted with the ids
// delivered (by timed delete-mins and by the final drain). Every acked
// id must come back exactly once, and nothing else may come back.
// corrupt counts delivered values that failed to decode.
func checkDelivery(acked, delivered []uint64, corrupt int) delivery {
	var maxID uint64
	for _, id := range acked {
		maxID = max(maxID, id)
	}
	for _, id := range delivered {
		maxID = max(maxID, id)
	}
	d := delivery{Corrupt: corrupt}
	if len(acked)+len(delivered) == 0 {
		return d
	}
	// One byte per id: the acked flag plus a saturating delivery count.
	seen := make([]uint8, maxID+1)
	for _, id := range acked {
		if seen[id]&ackedBit != 0 {
			// An id acked twice is a bug in the benchmark's id scheme,
			// but it would hide a loss, so it counts.
			d.Duplicated++
		}
		seen[id] |= ackedBit
	}
	for _, id := range delivered {
		if seen[id]&countMask < countMask {
			seen[id]++
		}
	}
	for _, s := range seen {
		n := int(s & countMask)
		switch {
		case s&ackedBit != 0 && n == 0:
			d.Lost++
		case s&ackedBit == 0 && n > 0:
			d.Phantom += n
		case n > 1:
			d.Duplicated += n - 1
		}
	}
	return d
}
