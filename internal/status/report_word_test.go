package status

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// spread8 lays out every u < 10^8 as strconv writes it, zero-padded to
// eight digits; -short samples every 97th, from the top down.
func TestSpread8MatchesAppendUint(t *testing.T) {
	step := uint64(1)
	if testing.Short() {
		step = 97
	}
	var want []byte
	var got [8]byte
	for u := uint64(1e8 - 1); ; u -= step {
		want = strconv.AppendUint(want[:0], u+1e8, 10) // a 1, then u's eight digits
		binary.LittleEndian.PutUint64(got[:], spread8(uint32(u))|ascii)
		if string(got[:]) != string(want[1:]) {
			t.Fatalf("spread8(%d) writes %q, want %q", u, got, want[1:])
		}
		if u < step {
			break
		}
	}
}

// eightDigits finds the digit run a byte loop finds, and its value, for
// runs of 0–8 digits and every byte value in every lane after the run,
// whatever the lanes past that one hold.
func TestEightDigitsMatchesAByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run <= 8; run++ {
		for c := 0; c < 256; c++ {
			for trial := 0; trial < 8; trial++ {
				var w [8]byte
				for j := range w {
					if j < run {
						w[j] = '0' + byte(rng.Intn(10))
					} else {
						w[j] = byte(rng.Intn(256))
					}
				}
				if run < 8 {
					w[run] = byte(c)
				}
				n, v := 0, uint64(0)
				for ; n < 8 && '0' <= w[n] && w[n] <= '9'; n++ {
					v = v*10 + uint64(w[n]-'0')
				}
				next := byte(0) // no byte follows eight digits in the word
				if n < 8 {
					next = w[n]
				}
				if gn, gv, gc := eightDigits(binary.LittleEndian.Uint64(w[:])); gn != n || gv != v || (n < 8 && gc != next) {
					t.Fatalf("eightDigits(%q) = %d digits, %d, then %q; the byte loop reads %d, %d, then %q", w, gn, gv, gc, n, v, next)
				}
			}
		}
	}
}

// The word-at-a-time path takes a report's usual fields wherever they
// lie, the datagram's last bytes included, and ends each at its '|'.
func TestScanFloatTakesRatesAndTheLastField(t *testing.T) {
	for _, field := range []string{"0", "7", "0.42", "4771.02", "1234.567", "0.000123", "-0", "5.", ".5",
		"3.4998765e+06", "1e+06", "-2.5e-05", "12345678", "123456789012345", "1.234567890123456e+15"} {
		for _, around := range [][2]string{{"", ""}, {"", "|1"}, {"1|", ""}, {"1|", "|"}} {
			data, start := around[0]+field+around[1], len(around[0])
			got, end, ok := scanFloat([]byte(data), start)
			want, _ := strconv.ParseFloat(field, 64)
			if !ok || end != start+len(field) || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("scanFloat(%q, %d) = %v, %d, %v; want %v, %d, true", data, start, got, end, ok, want, start+len(field))
			}
		}
	}
	for _, field := range []string{"", "-", ".", "1e", "+1", "1x", "12345678901234567", "4503599627370496", "1e+100", "3.0000000000000004"} {
		if _, _, ok := scanFloat([]byte(field), 0); ok {
			t.Errorf("scanFloat(%q) took the field, want it left to strconv", field)
		}
	}
}
