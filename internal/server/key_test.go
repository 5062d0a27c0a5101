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
