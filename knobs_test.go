package lotus_test

import (
	"reflect"
	"testing"

	"lotus/internal/cluster"
	"lotus/internal/control"
	"lotus/internal/serve"
)

// TestKnobRatchet pins the number of exported fields on the serving stack's
// configuration surfaces. A knob is only worth its place if it shows a bench
// or gate delta, is derived automatically, or goes (ROADMAP aim 2): a change
// that adds one must update this pin and say which of the three it meets;
// a change that removes one lowers the pin.
func TestKnobRatchet(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{
		{serve.Config{}, 17},
		{serve.ClientConfig{}, 9}, // Addrs went: failover across servers is cluster.Client's
		{cluster.Config{}, 14},
		{control.Knobs{}, 2},
	} {
		typ := reflect.TypeOf(c.v)
		got := 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				got++
			}
		}
		if got != c.want {
			t.Errorf("%s has %d exported fields, pinned at %d. Every knob must show a bench "+
				"delta, be derived automatically, or be removed (ROADMAP aim 2): justify the "+
				"change, then move the pin", typ, got, c.want)
		}
	}
}
