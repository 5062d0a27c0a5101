package server

import (
	"reflect"
	"testing"

	"dpals"
)

// TestCacheKeyCoversEveryOption guards the result cache against stale hits:
// every dpals.Options field must either change cacheKey when it changes, or
// sit on the explicit exclusion list of fields that never change the result
// bits. A newly added option fails here until it is hashed or excluded.
func TestCacheKeyCoversEveryOption(t *testing.T) {
	excluded := map[string]bool{
		"Threads":   true, // results are bit-identical across thread counts
		"TimeLimit": true, // deadline-stopped results are never cached
	}
	c := dpals.NewMultiplier(3, 3, false)
	// A WCE base keeps the certification knobs live through Resolved; both
	// LAC kinds are on so switching either one off changes the resolved set.
	base := dpals.Options{
		Flow: dpals.DP, Metric: dpals.WCE, Threshold: 4, WCEBound: 4,
		CertEvery: 8, CertConflictLimit: 100, Patterns: 512, Seed: 3,
		UseConstLACs: true, UseSASIMILACs: true,
	}
	baseKey := cacheKey(c, base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		opt := base
		v := reflect.ValueOf(&opt).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.Slice:
			if f.Type.Elem().Kind() != reflect.Float64 {
				t.Fatalf("option %s: cannot perturb a %v; extend this test", f.Name, f.Type)
			}
			v.Set(reflect.Append(v, reflect.ValueOf(0.25)))
		default:
			t.Fatalf("option %s: cannot perturb a %v; extend this test", f.Name, f.Type)
		}
		changed := cacheKey(c, opt) != baseKey
		switch {
		case excluded[f.Name] && changed:
			t.Errorf("option %s is excluded but changes the cache key", f.Name)
		case !excluded[f.Name] && !changed:
			t.Errorf("option %s is neither hashed by cacheKey nor excluded: results differing only in it would share a cache entry", f.Name)
		}
	}
}

// TestCacheKeyGolden pins the content address of a fixed circuit under a
// default ER job and a WCE job. The keys index results already held in
// caches, so any change here — a renamed option type, a reordered hash
// input, a different default — silently moves the whole "alsd-key-v2"
// address space; bump that tag instead of updating these values.
func TestCacheKeyGolden(t *testing.T) {
	c := dpals.NewMultiplier(4, 4, false)
	for _, tc := range []struct {
		name string
		opt  dpals.Options
		want string
	}{
		{"er-default", dpals.Options{Metric: dpals.ER, Threshold: 0.05}, "91f92cfc9a9124ceecbe1890fa0ed059be09eee60121b4cd8aa35ae72994a3fb"},
		{"wce", dpals.Options{Flow: dpals.DP, Metric: dpals.WCE, WCEBound: 8, CertConflictLimit: 1000, Patterns: 1024, Seed: 7}, "1e020eb6164ac64ecda6a7f17d10aa49265e84949d2102684b4c7b262c34b0ff"},
	} {
		if got := cacheKey(c, tc.opt); got != tc.want {
			t.Errorf("%s: cacheKey = %s, want %s", tc.name, got, tc.want)
		}
	}
}
