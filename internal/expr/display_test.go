package expr

import "testing"

func TestNaturalCmpDisplay(t *testing.T) {
	x, y, a := IntVar("x"), IntVar("y"), IntVar("a")
	cases := []struct {
		t    *Term
		want string
	}{
		{Simplify(Ge(x, Add(a, Int(1))), nil), "a <= x - 1"}, // canonical side choice
		{Simplify(Le(Add(a, Neg(x)), Int(-1)), nil), "a <= x - 1"},
		{Simplify(Eq(Sub(a, x), Int(0)), nil), "a == x"},
		{Simplify(Lt(Mul(Int(2), x), Add(y, Int(7))), nil), "2 * x <= y + 6"},
		{Simplify(Ne(x, Int(0)), nil), "x != 0"},
		{Simplify(Le(Int(3), x), nil), "x >= 3"},
	}
	for _, c := range cases {
		if got := CString(c.t); got != c.want {
			t.Errorf("CString(%v) = %q, want %q", c.t, got, c.want)
		}
	}
}
