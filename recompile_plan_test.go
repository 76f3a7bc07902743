package systemds_test

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	systemds "github.com/systemds/systemds-go"
	"github.com/systemds/systemds-go/internal/compiler"
	"github.com/systemds/systemds-go/internal/hops"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// runGoldenCorpus runs every golden script under every configuration and
// fusion setting of testdata/plan_golden.json, at the given thread count,
// with p installed as the compiler's probe; each sees every key after its
// run.
func runGoldenCorpus(t *testing.T, p *compiler.Probe, threads int, each func(key string)) {
	defer compiler.SetProbe(p)()
	inputs := goldenInputs()
	for _, sc := range goldenScripts {
		for _, cfg := range goldenConfigs {
			for _, fusion := range []bool{true, false} {
				key := fmt.Sprintf("%s/%s/fusion=%v/threads=%d", sc.name, cfg.name, fusion, threads)
				opts := append([]systemds.Option{systemds.WithParallelism(threads), systemds.WithFusion(fusion)}, cfg.opts...)
				if _, err := systemds.NewContext(opts...).Execute(sc.script, inputs, sc.outputs...); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				each(key)
			}
		}
	}
}

// TestRecompilePlansAlikeFromExactAndVisibleSizes: at every recompilation
// of the golden corpus, the block lowered from the exact characteristics of
// its reads and the block lowered from their plan-visible form (dense-class
// nnz set to rows·cols) are the same instruction list, field by field — so
// the memo keyed by the visible form never serves one plan for sizes that
// would have planned another. Some rebuilds must see an nnz the
// normalisation changed (X holds zeros; Xs is 5% dense and keeps its count).
// At three threads the parfor workers of the real-valued Gram script
// recompile concurrently; the probe runs under the compiler's recompile
// lock.
func TestRecompilePlansAlikeFromExactAndVisibleSizes(t *testing.T) {
	var rebuilds, normalised int
	var failures []string
	probe := &compiler.Probe{Rebuild: func(exact, visible map[string]types.DataCharacteristics,
		plan func(map[string]types.DataCharacteristics) ([]runtime.Instruction, error)) {
		rebuilds++
		if !sameSizes(exact, visible) {
			normalised++
		}
		fromExact, err := plan(exact)
		if err != nil {
			failures = append(failures, fmt.Sprintf("plan from exact sizes: %v", err))
			return
		}
		fromVisible, err := plan(visible)
		if err != nil {
			failures = append(failures, fmt.Sprintf("plan from visible sizes: %v", err))
			return
		}
		if a, b := renderPlan(fromExact), renderPlan(fromVisible); a != b {
			failures = append(failures, fmt.Sprintf("sizes %v / %v:\nexact:\n%s\nvisible:\n%s", exact, visible, a, b))
		}
	}}
	for _, threads := range []int{1, 3} {
		runGoldenCorpus(t, probe, threads, func(key string) {
			for _, f := range failures {
				t.Errorf("%s: %s", key, f)
			}
			failures = nil
		})
	}
	if rebuilds == 0 || normalised == 0 {
		t.Fatalf("%d rebuilds, %d with a normalised nnz: the corpus no longer checks the key", rebuilds, normalised)
	}
	t.Logf("%d rebuilds, %d with a normalised nnz", rebuilds, normalised)
}

// TestDAGCachesMatchAFreshWalk: after every pass of every flush over the
// golden corpus — static compiles and recompilations alike — what the DAG
// caches of its post-order and consumer counts is what a fresh traversal of
// its edges finds.
func TestDAGCachesMatchAFreshWalk(t *testing.T) {
	var checked int
	var failures []string
	probe := &compiler.Probe{Pass: func(pass string, d *hops.DAG) {
		checked++
		if err := d.CheckCaches(); err != nil {
			failures = append(failures, fmt.Sprintf("after %s: %v", pass, err))
		}
	}}
	runGoldenCorpus(t, probe, 1, func(key string) {
		for _, f := range failures {
			t.Errorf("%s: %s", key, f)
		}
		failures = nil
	})
	if checked == 0 {
		t.Fatal("no pass was observed")
	}
}

func sameSizes(a, b map[string]types.DataCharacteristics) bool {
	if len(a) != len(b) {
		return false
	}
	for name, dc := range a {
		if o, ok := b[name]; !ok || o.String() != dc.String() {
			return false
		}
	}
	return true
}

// renderPlan prints an instruction list field by field, exported or not,
// following pointers and sorting map keys, with every temporary renamed by
// its first appearance: two lists render alike exactly when they are the
// same plan, whatever HOP ids their temporaries were named after.
func renderPlan(instrs []runtime.Instruction) string {
	var sb strings.Builder
	temps := map[string]int{}
	var walk func(v reflect.Value, depth int)
	walk = func(v reflect.Value, depth int) {
		if depth > 40 {
			sb.WriteString("…")
			return
		}
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				sb.WriteString("nil")
				return
			}
			walk(v.Elem(), depth+1)
		case reflect.Struct:
			sb.WriteString(v.Type().String() + "{")
			for i := 0; i < v.NumField(); i++ {
				sb.WriteString(v.Type().Field(i).Name + ":")
				walk(v.Field(i), depth+1)
				sb.WriteByte(' ')
			}
			sb.WriteByte('}')
		case reflect.Slice, reflect.Array:
			sb.WriteByte('[')
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), depth+1)
				sb.WriteByte(',')
			}
			sb.WriteByte(']')
		case reflect.Map:
			keys := v.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
			sb.WriteByte('{')
			for _, k := range keys {
				walk(k, depth+1)
				sb.WriteByte('=')
				walk(v.MapIndex(k), depth+1)
				sb.WriteByte(',')
			}
			sb.WriteByte('}')
		case reflect.String:
			s := v.String()
			if strings.HasPrefix(s, runtime.TempPrefix) {
				n, ok := temps[s]
				if !ok {
					n = len(temps)
					temps[s] = n
				}
				s = fmt.Sprintf("%s#%d", runtime.TempPrefix, n)
			}
			sb.WriteString(strconv.Quote(s))
		case reflect.Func, reflect.Chan, reflect.UnsafePointer:
			if v.IsNil() {
				sb.WriteString("nil")
			} else {
				sb.WriteString(v.Kind().String())
			}
		default:
			fmt.Fprint(&sb, v)
		}
	}
	for _, inst := range instrs {
		walk(reflect.ValueOf(inst), 0)
		sb.WriteByte('\n')
	}
	return sb.String()
}
