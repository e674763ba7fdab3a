package store

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"smartsock/internal/status"
)

// A snapshot page is struct-of-arrays; a record goes in as a row and
// comes back out of At, Each, Sys and FreshSys as a row. These tests
// hold the two to bit-for-bit equality over values a float or a
// uint64 round trip could lose, and the page's one reader of single
// variables, Column, to VarAt.

var (
	oddFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, math.MaxFloat64, -3.25}
	oddMems   = []uint64{math.MaxUint64, 0, 1 << 20, 1<<53 + 1, 12345}
)

// oddSys fills every numeric field of a report from the values above,
// shifted by k so neighbouring hosts differ, and gives every third
// host an empty interface name and the others a long one.
func oddSys(host string, k int) status.ServerStatus {
	s := status.ServerStatus{Host: host, NetIface: strings.Repeat("eth", k%3*40)}
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(oddFloats[(k+i)%len(oddFloats)])
		case reflect.Uint64:
			f.SetUint(oddMems[(k+i)%len(oddMems)])
		}
	}
	return s
}

// sameStamp compares two stamps, times as instants: a page gives its
// stamp back in UTC and without a monotonic reading.
func sameStamp(got, want Stamp) bool {
	return got.Ver == want.Ver && got.RefVer == want.RefVer && got.UpdatedAt.Equal(want.UpdatedAt)
}

// sameRecords is slices.Equal for records, with stamps as sameStamp has them.
func sameRecords(got, want []SysRecord) bool {
	return slices.EqualFunc(got, want, func(a, b SysRecord) bool { return a.Status == b.Status && sameStamp(a.Stamp, b.Stamp) })
}

// sameRecord compares two records field by field, floats by their bits.
func sameRecord(got, want SysRecord) error {
	if !sameStamp(got.Stamp, want.Stamp) || got.UpdatedAt != got.UpdatedAt.Round(0).UTC() {
		return fmt.Errorf("%s: stamp %+v, want %+v in UTC", want.Status.Host, got.Stamp, want.Stamp)
	}
	g, w := reflect.ValueOf(got.Status), reflect.ValueOf(want.Status)
	for i := 0; i < g.NumField(); i++ {
		gf, wf := g.Field(i), w.Field(i)
		same := gf.Equal(wf)
		if gf.Kind() == reflect.Float64 {
			same = math.Float64bits(gf.Float()) == math.Float64bits(wf.Float())
		}
		if !same {
			return fmt.Errorf("%s: %s = %v, want %v", want.Status.Host, g.Type().Field(i).Name, gf, wf)
		}
	}
	return nil
}

func TestSysPageRoundTrip(t *testing.T) {
	clock := newFakeClock()
	db := NewWithClock(clock.Now)
	const fleet = 2*SysPageLen + 5
	want := map[string]SysRecord{}
	put := func(i, k int) {
		clock.Advance(time.Millisecond)
		s := oddSys(fmt.Sprintf("rt-%04d", i), k)
		db.PutSys(s)
		want[s.Host], _ = db.GetSys(s.Host)
	}
	check := func(route string) {
		t.Helper()
		snap := db.SysView()
		if snap.Len() != len(want) {
			t.Fatalf("%s: %d records, want %d", route, snap.Len(), len(want))
		}
		var errs []error
		for i := 0; i < snap.Len(); i++ {
			r := snap.At(i)
			errs = append(errs, sameRecord(r, want[r.Status.Host]))
		}
		snap.Each(func(_ int, r *SysRecord) { errs = append(errs, sameRecord(*r, want[r.Status.Host])) })
		for _, list := range [][]SysRecord{db.FreshSys(0), db.FreshSys(time.Hour)} {
			if len(list) != len(want) {
				t.Fatalf("%s: a copy of %d records, want %d", route, len(list), len(want))
			}
			for _, r := range list {
				errs = append(errs, sameRecord(r, want[r.Status.Host]))
			}
		}
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", route, err)
			}
		}
	}
	for i := 0; i < fleet; i++ {
		put(i, i)
	}
	check("from scratch")
	for i := 0; i < fleet; i += 7 {
		put(i, i+1)
	}
	if !willPatch(db) {
		t.Fatal("a rebuild after writes to known hosts would not patch")
	}
	check("patched")
	put(fleet, 3) // a host joins: the records are respliced
	check("respliced")
}

// TestSysPageColumnMatchesVarAt reads every status variable of a short
// page through Column and compares it, offset by offset, with the
// row's VarAt.
func TestSysPageColumnMatchesVarAt(t *testing.T) {
	page := SysPage{names: new(sysNames)}
	recs := make([]SysRecord, SysPageLen-3)
	for i := range recs {
		recs[i].Status = oddSys("column", i)
		page.set(i, &recs[i])
		page.n++
	}
	var buf [SysPageLen]float64
	for name := range (&status.ServerStatus{}).Vars() {
		v := status.VarIndex(name)
		col := page.Column(v, &buf)
		if len(col) != len(recs) {
			t.Fatalf("%s: a column of %d values on a page of %d", name, len(col), len(recs))
		}
		for i := range recs {
			if want := recs[i].Status.VarAt(v); math.Float64bits(col[i]) != math.Float64bits(want) {
				t.Errorf("%s at offset %d: %v, VarAt says %v", name, i, col[i], want)
			}
		}
	}
}

// TestSysPageFitsItsAllocationClass pins the page to one 16 KB
// allocation: a cloned page is one allocation of one size class.
func TestSysPageFitsItsAllocationClass(t *testing.T) {
	if size := unsafe.Sizeof(SysPage{}); size > 16<<10 {
		t.Fatalf("a page is %d bytes, over the 16 KB class", size)
	}
}

// TestSysPageBodyHoldsNoPointers: the name block is a page's one
// pointer, so a clone is a byte copy with no write barriers and a body
// the collector does not scan.
func TestSysPageBodyHoldsNoPointers(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Struct:
			for i := range ty.NumField() {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Bool, reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint64, reflect.Float64:
			return true
		}
		return false
	}
	ty := reflect.TypeOf(SysPage{})
	for i := range ty.NumField() {
		if f := ty.Field(i); f.Name != "names" && !pointerFree(f.Type) {
			t.Errorf("SysPage.%s (%s) holds a pointer", f.Name, f.Type)
		}
	}
	if ty.Field(0).Name != "names" {
		t.Error("the name block is not the page's first field: the collector scans up to the last pointer")
	}
}

// TestSysPageStampsEveryYear puts records stamped at instants a
// nanosecond count since 1970 cannot hold — the zero Time, 1500, 2300 —
// and reads each back through At, Each and a page.
func TestSysPageStampsEveryYear(t *testing.T) {
	for _, at := range []time.Time{
		{},
		time.Date(1500, 3, 1, 12, 0, 0, 123456789, time.UTC),
		time.Date(2300, 7, 4, 0, 0, 1, 999999999, time.FixedZone("east", 5*3600)),
	} {
		db := NewWithClock(func() time.Time { return at })
		db.PutSys(host("stamped", 1))
		snap := db.SysView()
		page, _ := snap.Page(0)
		got := []time.Time{snap.At(0).UpdatedAt, page.UpdatedAt(0)}
		snap.Each(func(_ int, r *SysRecord) { got = append(got, r.UpdatedAt) })
		for _, g := range got {
			if !g.Equal(at) || g != at.UTC() {
				t.Errorf("stamped %v, read back %v", at, g)
			}
		}
	}
}
