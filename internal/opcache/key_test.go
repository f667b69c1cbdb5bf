package opcache

import (
	"fmt"
	"slices"
	"testing"

	"acyclicjoin/internal/extmem"
)

// TestMemoKeyFields checks that the fast-path key tells apart two ops that
// differ in one key field: kind, params, aux, each window's ContentID,
// Version, Off or N, or the input count (dropping the second input also
// empties its window). The windows' contents are equal throughout, so the
// slow path may still find an identity variant by content; the fast path
// must not. An op with three inputs panics.
func TestMemoKeyFields(t *testing.T) {
	d := extmem.NewDisk(extmem.Config{M: 16, B: 4})
	fill := func() *extmem.File {
		f := d.NewFile(2)
		w := f.NewWriter()
		for i := range 10 {
			w.Append([]int64{int64(i), 7})
		}
		w.Close()
		return f
	}
	// live[i] goes on past its clone frozen[i]: same ContentID, newer
	// Version. twin has frozen's contents and Version under another
	// ContentID.
	live := []*extmem.File{fill(), fill()}
	frozen := []*extmem.File{live[0].CloneTo(d), live[1].CloneTo(d)}
	for _, f := range live {
		w := f.NewWriter()
		w.Append([]int64{0, 0})
		w.Close()
	}
	twin := fill()
	if twin.Version() != frozen[0].Version() || twin.ContentID() == frozen[0].ContentID() {
		t.Fatal("twin must share frozen's Version under another ContentID")
	}

	base := Op{Kind: "k", Params: "p", Aux: []int64{1, 2},
		Inputs: []Input{{File: frozen[0], N: 8}, {File: frozen[1], N: 8}}}
	variant := func(edit func(*Op)) Op {
		o := base
		o.Inputs, o.Aux = slices.Clone(base.Inputs), slices.Clone(base.Aux)
		edit(&o)
		return o
	}
	variants := map[string]Op{
		"kind":        variant(func(o *Op) { o.Kind = "k2" }),
		"params":      variant(func(o *Op) { o.Params = "p2" }),
		"aux":         variant(func(o *Op) { o.Aux[1] = 3 }),
		"input count": variant(func(o *Op) { o.Inputs = o.Inputs[:1] }),
	}
	for i := range base.Inputs {
		variants[fmt.Sprintf("window %d ContentID", i)] = variant(func(o *Op) { o.Inputs[i].File = twin })
		variants[fmt.Sprintf("window %d Version", i)] = variant(func(o *Op) { o.Inputs[i].File = live[i] })
		variants[fmt.Sprintf("window %d Off", i)] = variant(func(o *Op) { o.Inputs[i].Off = 1 })
		variants[fmt.Sprintf("window %d N", i)] = variant(func(o *Op) { o.Inputs[i].N = 9 })
	}

	run := func() ([]*extmem.File, []int64, error) { return []*extmem.File{d.NewFile(1)}, nil, nil }
	for name, v := range variants {
		m := Enable(d)
		if _, _, err := Do(d, base, run); err != nil {
			t.Fatal(err)
		}
		if keyOf(v) == keyOf(base) {
			t.Errorf("%s: variant has the base op's key", name)
		}
		if _, hit := m.byID[keyOf(v)]; hit {
			t.Errorf("%s: variant shares the base op's fast-path entry", name)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("an op with three inputs did not panic")
		}
	}()
	three := variant(func(o *Op) { o.Inputs = append(o.Inputs, Input{File: twin, N: 1}) })
	Do(d, three, run)
}
