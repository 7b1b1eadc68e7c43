package wirejson

import (
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// refNumber is the number scan the one-pass conversion replaced, kept as
// the oracle: it checks the literal against JSON's grammar and returns it
// for strconv to convert; nil for null or on error.
func refNumber(r *Reader, target string) []byte {
	if r.Null() || r.err != nil {
		return nil
	}
	if c := r.peek(); c != '-' && (c < '0' || c > '9') {
		r.mismatch(target)
		return nil
	}
	digits := func(d []byte, i int) int {
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i
	}
	d := r.data
	start, i := r.pos, r.pos
	if d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		r.pos = i
		r.unexpected("in numeric literal")
		return nil
	}
	if i < len(d) && d[i] == '.' {
		if j := digits(d, i+1); j > i+1 {
			i = j
		} else {
			r.pos = i + 1
			r.unexpected("after decimal point in numeric literal")
			return nil
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j := digits(d, i); j > i {
			i = j
		} else {
			r.pos = i
			r.unexpected("in exponent of numeric literal")
			return nil
		}
	}
	r.pos = i
	return d[start:i]
}

// refFloat, refInt and refUint64 are Float, Int and Uint64 as strconv
// conversions of refNumber's literal.
func refFloat(r *Reader) float64 {
	lit := refNumber(r, "float64")
	if lit == nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.failf("cannot decode number %s into float64", lit)
		return 0
	}
	return f
}

func refInt(r *Reader) int {
	lit := refNumber(r, "int")
	if lit == nil {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		r.failf("cannot decode number %s into int", lit)
		return 0
	}
	return int(n)
}

func refUint64(r *Reader) uint64 {
	lit := refNumber(r, "uint64")
	if lit == nil {
		return 0
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		r.failf("cannot decode number %s into uint64", lit)
		return 0
	}
	return n
}

// numberPair runs a decoder and its oracle over the same input on two
// reused readers (a fresh Reader zeroes a 512-string cache).
type numberPair struct{ got, want Reader }

// decodeBoth runs dec on got and ref on want over data, then requires the same
// end of document, and reports any difference in value bits, error text
// or final offset.
func decodeBoth[T comparable](t *testing.T, p *numberPair, data []byte, dec, ref func(*Reader) T) {
	t.Helper()
	run := func(r *Reader, f func(*Reader) T) (T, string, int) {
		r.data, r.pos, r.err, r.depth = data, 0, nil, 0
		v := f(r)
		r.end()
		msg := ""
		if r.err != nil {
			msg = r.err.Error()
		}
		return v, msg, r.pos
	}
	gv, gerr, gpos := run(&p.got, dec)
	wv, werr, wpos := run(&p.want, ref)
	if gv != wv || gerr != werr || gpos != wpos {
		t.Fatalf("%q: got (%v, %q, offset %d), want (%v, %q, offset %d)", data, gv, gerr, gpos, wv, werr, wpos)
	}
}

func floatBits(r *Reader) uint64    { return math.Float64bits(r.Float()) }
func refFloatBits(r *Reader) uint64 { return math.Float64bits(refFloat(r)) }

// checkNumber requires Float, Int and Uint64 to agree with their strconv
// oracles on data: verdict, error text, offset and value bits.
func checkNumber(t *testing.T, p *numberPair, data []byte) {
	t.Helper()
	decodeBoth(t, p, data, floatBits, refFloatBits)
	decodeBoth(t, p, data, (*Reader).Int, refInt)
	decodeBoth(t, p, data, (*Reader).Uint64, refUint64)
}

// numberSeeds are the literals where a fast conversion is likeliest to part
// from strconv: signed zeros, subnormals, the edges of float64's exact
// integers and of int and uint64, halfway cases, long mantissas, and
// exponents on and past both ends of the power-of-ten table.
var numberSeeds = []string{
	"0", "-0", "0.0", "-0.0", "0e0", "-0e-400", "0.000", "0e999999999999",
	"1", "-1", "7", "12.5", "0.1", "0.3", "1e2", "1E+2", "2.5e-3", "-12.75e1",
	"5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "-2.2250738585072014e-308",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "-1.8e308",
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740995",
	"-9007199254740993", "9007199254740993.0", "9007199254740992.5e0",
	"1e22", "1e23", "-1e23", "8.41e21", "1e15", "1e37", "123456e20", "1234567890123456e22",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"18446744073709551615", "18446744073709551616", "99999999999999999999", "10000000000000000000",
	"1000000000000000000000000", "1234567890123456789", "12345678901234567890", "1.234567890123456789012",
	"0.1000000000000000055511151231257827021181583404541015625",
	"0.1000000000000000055511151231257827021181583404541015624",
	"2.00000000000000011102230246251565404236316680908203125",
	"2.000000000000000111022302462515654042363166809082031250000001",
	"1e-400", "-1e-400", "1e400", "-1e400", "1e-348", "1e-349", "1e347", "1e348",
	"1e308", "1e309", "1e-307", "1e-325", "0.00000000000000000000000000001e30",
	"1.0", "1.", ".5", "-", "--1", "+1", "01", "-01", "00", "1e", "1e+", "1e-", "1ee2",
	"0x10", "1_000", "Infinity", "NaN", "null", "nul", `"1"`, "true", "[]", "",
	" 3 ", "3 4", "1.5.5", "1e5.5", "1\x00", "-1.e3",
}

// FuzzNumber checks the one-pass number conversion against strconv on any
// input: Float, Int and Uint64 give the same accept/reject verdict, error
// text, offset and value bits as the conversions they replaced.
func FuzzNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s))
	}
	var p numberPair
	f.Fuzz(func(t *testing.T, data []byte) {
		checkNumber(t, &p, data)
	})
}

// TestFloatMatchesStrconv is the deterministic property behind FuzzNumber:
// on 10^6 random doubles (10^5 under -race), written shortest with 'g'
// and again with 'e' or 'f' at a random precision, Float returns
// strconv.ParseFloat's bits (or, where rounding the text overflows, fails
// as it does). Random bit patterns cover every exponent, subnormals
// included; 'f' with a long precision writes mantissas far past 19 digits.
func TestFloatMatchesStrconv(t *testing.T) {
	n := 1_000_000
	if raceEnabled {
		n /= 10
	}
	rng := rand.New(rand.NewPCG(35, 1))
	var r Reader
	var buf []byte
	check := func(lit []byte) {
		r.data, r.pos, r.err = lit, 0, nil
		got := r.Float()
		want, err := strconv.ParseFloat(string(lit), 64)
		if (r.err != nil) != (err != nil) || err == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: got %v (%v), want %v (%v)", lit, got, r.err, want, err)
		}
	}
	for range n {
		x := math.Float64frombits(rng.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		buf = strconv.AppendFloat(buf[:0], x, 'g', -1, 64)
		check(buf)
		fmtc, prec := byte('e'), rng.IntN(25)
		if rng.IntN(2) == 0 {
			fmtc, prec = 'f', rng.IntN(30)
			// Keep 'f' to magnitudes in [2^-70, 2^70): up to ~50 digits.
			frac, _ := math.Frexp(x)
			x = math.Ldexp(frac, rng.IntN(140)-70)
		}
		buf = strconv.AppendFloat(buf[:0], x, fmtc, prec, 64)
		check(buf)
	}
}

// TestPow10Table pins the power-of-ten table to strconv's: its first, last
// and exactness-boundary rows as printed in strconv's source, and, when the
// Go source tree is installed, every row of strconv's detailedPowersOfTen.
func TestPow10Table(t *testing.T) {
	pinned := map[int][2]uint64{
		-348: {0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		-1:   {0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		0:    {0x0000000000000000, 0x8000000000000000},
		43:   {0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		347:  {0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	}
	for e, want := range pinned {
		if got := pow10Table[e-pow10MinExp]; got != want {
			t.Errorf("1e%d: got {%#x, %#x}, want {%#x, %#x}", e, got[0], got[1], want[0], want[1])
		}
	}
	goroot, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		t.Skipf("no go command to locate strconv's source: %v", err)
	}
	src, err := os.ReadFile(filepath.Join(strings.TrimSpace(string(goroot)), "src", "strconv", "eisel_lemire.go"))
	if err != nil {
		t.Skipf("strconv source not installed: %v", err)
	}
	rows := regexp.MustCompile(`\{0x([0-9A-F]{16}), 0x([0-9A-F]{16})\}, // 1e(-?[0-9]+)`).FindAllSubmatch(src, -1)
	if len(rows) != len(pow10Table) {
		t.Fatalf("strconv lists %d rows, the table has %d", len(rows), len(pow10Table))
	}
	for _, row := range rows {
		lo, _ := strconv.ParseUint(string(row[1]), 16, 64)
		hi, _ := strconv.ParseUint(string(row[2]), 16, 64)
		e, _ := strconv.Atoi(string(row[3]))
		if got := pow10Table[e-pow10MinExp]; got != [2]uint64{lo, hi} {
			t.Errorf("1e%d: got {%#x, %#x}, strconv has {%#x, %#x}", e, got[0], got[1], lo, hi)
		}
	}
}
