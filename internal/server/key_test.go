package server

import (
	"reflect"
	"strings"
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
// caches, so any change here — a renamed option or JSON name, a reordered
// field, a different default — silently moves the whole "alsd-key-v3"
// address space; bump that tag instead of updating these values.
func TestCacheKeyGolden(t *testing.T) {
	c := dpals.NewMultiplier(4, 4, false)
	for _, tc := range []struct {
		name string
		opt  dpals.Options
		want string
	}{
		{"er-default", dpals.Options{Metric: dpals.ER, Threshold: 0.05}, "bb9c7fff29decc46d7ae795cda23e2316e0bf4a6ca2fbc416f800c9eb0958d8d"},
		{"wce", dpals.Options{Flow: dpals.DP, Metric: dpals.WCE, WCEBound: 8, CertConflictLimit: 1000, Patterns: 1024, Seed: 7}, "40d00374ee5a123aa96be818fe8f90fd83d5bb6092efdd682a6065a6057d0f1f"},
	} {
		if got := cacheKey(c, tc.opt); got != tc.want {
			t.Errorf("%s: cacheKey = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestJobRequestNamesMatchOptions: every option field of the request body
// carries the JSON name of the dpals.Options field parseJob copies it to,
// so a request body and an encoded Options spell a run the same way. Each
// field is perturbed alone; exactly one option must move, under the same
// name. The exceptions are time_limit_ms (milliseconds for TimeLimit,
// which Options never encodes) and threads, which the server owns.
func TestJobRequestNamesMatchOptions(t *testing.T) {
	notOption := map[string]bool{"circuit": true, "format": true, "time_limit_ms": true, "priority": true, "no_cache": true}
	c := dpals.NewMultiplier(3, 3, false)
	text := circuitAIGER(t, c)
	// A WCE base keeps the certification knobs valid; fields that need
	// another metric (weights, and metric itself) fall back to the ER base.
	bases := []JobRequest{
		{Circuit: text, Flow: "dp", Metric: "wce", Threshold: 4, WCEBound: 4, CertConflictLimit: 100},
		{Circuit: text, Flow: "dp", Metric: "er", Threshold: 0.1},
	}
	covered := map[string]bool{}
	rt := reflect.TypeOf(JobRequest{})
	for i := 0; i < rt.NumField(); i++ {
		name := jsonName(rt.Field(i))
		if notOption[name] {
			continue
		}
		moved := ""
		for _, base := range bases {
			_, before, err := parseJob(&base)
			if err != nil {
				t.Fatal(err)
			}
			req := base
			v := reflect.ValueOf(&req).Elem().Field(i)
			switch v.Kind() {
			case reflect.String:
				v.SetString(map[string]string{"flow": "conventional", "metric": "med"}[name])
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Int, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Float64:
				v.SetFloat(v.Float() + 0.5)
			case reflect.Slice:
				s := make([]float64, c.NumOutputs())
				for j := range s {
					s[j] = 0.5
				}
				v.Set(reflect.ValueOf(s))
			default:
				t.Fatalf("request field %s: cannot perturb a %v; extend this test", name, v.Type())
			}
			_, after, err := parseJob(&req)
			if err != nil {
				continue // needs the other base
			}
			var names []string
			ot := reflect.TypeOf(before)
			for j := 0; j < ot.NumField(); j++ {
				if !reflect.DeepEqual(reflect.ValueOf(before).Field(j).Interface(), reflect.ValueOf(after).Field(j).Interface()) {
					names = append(names, jsonName(ot.Field(j)))
				}
			}
			if len(names) != 1 {
				t.Fatalf("request field %s moved options %v, want exactly one", name, names)
			}
			moved = names[0]
			break
		}
		if moved != name {
			t.Errorf("request field %q is copied to option %q", name, moved)
		}
		covered[moved] = true
	}
	ot := reflect.TypeOf(dpals.Options{})
	for j := 0; j < ot.NumField(); j++ {
		if name := jsonName(ot.Field(j)); name != "-" && name != "threads" && !covered[name] {
			t.Errorf("option %q has no request field", name)
		}
	}
}

// jsonName is the JSON key of a struct field.
func jsonName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}
