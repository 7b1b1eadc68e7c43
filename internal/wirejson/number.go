package wirejson

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// number is a number literal checked against JSON's grammar, with its value
// read during the same scan: the first 19 significant digits (10^19 fits a
// uint64) in mant and the decimal exponent that scales them in exp. The
// fields mirror strconv's own first pass over a literal, so every fast
// conversion below starts from exactly the mantissa and exponent strconv
// would have read.
type number struct {
	lit   []byte // the literal; nil for null or on error
	mant  uint64 // the first 19 significant digits
	exp   int    // the literal is mant·10^exp unless trunc (0 when mant is 0)
	neg   bool
	trunc bool // a nonzero digit past the 19th was dropped
	long  bool // more than 19 significant digits, zeros included
	whole bool // no fraction and no exponent part
}

// maxMantDigits is the number of significant digits mant holds.
const maxMantDigits = 19

// number consumes a number literal checked against JSON's grammar
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) and reads its value; it
// returns a zero number (nil lit) for null or on error.
func (r *Reader) number(target string) (n number) {
	if r.err != nil {
		return n
	}
	switch c := r.peek(); {
	case c == 'n':
		r.literal("null")
		return n
	case c != '-' && (c < '0' || c > '9'):
		r.mismatch(target)
		return n
	}
	d := r.data
	start, i := r.pos, r.pos
	neg := d[i] == '-'
	if neg {
		i++
	}
	// The digits go into locals, which stay in registers. nd counts
	// significant digits (leading zeros are not, as in strconv), and dp
	// is the decimal point's position relative to the first of them.
	var mant uint64
	nd, trunc := 0, false
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		for ; i < len(d); i++ {
			c := d[i] - '0'
			if c > 9 {
				break
			}
			if nd < maxMantDigits {
				mant = mant*10 + uint64(c)
			} else if c != 0 {
				trunc = true
			}
			nd++
		}
	default:
		r.pos = i
		r.unexpected("in numeric literal")
		return n
	}
	dp := nd
	whole := true
	if i < len(d) && d[i] == '.' {
		whole = false
		j := i + 1
		for j < len(d) {
			// Past the leading zeros, eight digits that fit go in at once.
			if nd > 0 && nd <= maxMantDigits-8 {
				if v, ok := eightDigits(d, j); ok {
					mant = mant*1e8 + v
					nd += 8
					j += 8
					continue
				}
			}
			c := d[j] - '0'
			if c > 9 {
				break
			}
			j++
			if c == 0 && nd == 0 {
				dp--
				continue
			}
			if nd < maxMantDigits {
				mant = mant*10 + uint64(c)
			} else if c != 0 {
				trunc = true
			}
			nd++
		}
		if j == i+1 {
			r.pos = i + 1
			r.unexpected("after decimal point in numeric literal")
			return n
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		whole = false
		i++
		eneg := false
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			eneg = d[i] == '-'
			i++
		}
		e, j := 0, i
		for ; j < len(d) && '0' <= d[j] && d[j] <= '9'; j++ {
			if e < 10000 { // far past the table either way, as in strconv
				e = e*10 + int(d[j]-'0')
			}
		}
		if j == i {
			r.pos = i
			r.unexpected("in exponent of numeric literal")
			return n
		}
		i = j
		if eneg {
			e = -e
		}
		dp += e
	}
	exp := 0
	if mant != 0 {
		exp = dp - min(nd, maxMantDigits)
	}
	r.pos = i
	return number{
		lit: d[start:i], mant: mant, exp: exp, neg: neg,
		trunc: trunc, long: nd > maxMantDigits, whole: whole,
	}
}

// eightDigits reads d[j:j+8] as an eight-digit decimal number in one go,
// with the little-endian SWAR steps of fast_float: one test that all eight
// bytes are ASCII digits, then three multiplications that pair the digits
// up into 2-, 4- and 8-digit values. ok is false when fewer than eight
// bytes remain or one of them is not a digit.
func eightDigits(d []byte, j int) (v uint64, ok bool) {
	if j+8 > len(d) {
		return 0, false
	}
	v = binary.LittleEndian.Uint64(d[j:])
	if v&0xF0F0F0F0F0F0F0F0|(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
		return 0, false
	}
	v -= 0x3030303030303030
	v = v*10 + v>>8
	v = (v&0x000000FF000000FF*(100+1000000<<32) + v>>16&0x000000FF000000FF*(1+10000<<32)) >> 32
	return v, true
}

// Int decodes a JSON number that is an integer literal in int's range, as
// encoding/json requires for an int target (1.0 and 1e2 are errors); null
// decodes to 0.
func (r *Reader) Int() int {
	n := r.number("int")
	switch {
	case n.lit == nil:
		return 0
	case !n.whole:
		// strconv.ParseInt takes digits only.
	case n.long:
		if v, err := strconv.ParseInt(string(n.lit), 10, strconv.IntSize); err == nil {
			return int(v)
		}
	case n.neg && n.mant <= uint64(math.MaxInt)+1:
		return int(-n.mant) // wraps to math.MinInt at the bound
	case !n.neg && n.mant <= math.MaxInt:
		return int(n.mant)
	}
	r.failf("cannot decode number %s into int", n.lit)
	return 0
}

// Uint64 decodes a JSON number that is an integer literal in uint64's
// range, as encoding/json requires for a uint64 target (-1, 1.0 and 1e2
// are errors); null decodes to 0.
func (r *Reader) Uint64() uint64 {
	n := r.number("uint64")
	switch {
	case n.lit == nil:
		return 0
	case n.neg || !n.whole:
		// strconv.ParseUint takes digits only, so not even -0.
	case n.long:
		if v, err := strconv.ParseUint(string(n.lit), 10, 64); err == nil {
			return v
		}
	default:
		return n.mant
	}
	r.failf("cannot decode number %s into uint64", n.lit)
	return 0
}

// Float decodes a JSON number into a float64 (out-of-range literals are
// errors); null decodes to 0.
func (r *Reader) Float() float64 {
	n := r.number("float64")
	if n.lit == nil {
		return 0
	}
	if !n.trunc {
		if f, ok := exactFloat(n.mant, n.exp, n.neg); ok {
			return f
		}
		if f, ok := eiselLemire(n.mant, n.exp, n.neg); ok {
			return f
		}
	}
	f, err := strconv.ParseFloat(string(n.lit), 64)
	if err != nil {
		r.failf("cannot decode number %s into float64", n.lit)
		return 0
	}
	return f
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// exactFloat is Clinger's fast path, strconv's first try: when the mantissa
// and the power of ten are both exact float64s, one correctly rounded
// multiplication or division is the correctly rounded result.
func exactFloat(mant uint64, exp int, neg bool) (float64, bool) {
	if mant>>52 != 0 {
		return 0, false
	}
	f := float64(mant)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	case exp > 0 && exp <= 15+22:
		// A big exponent over few digits moves zeros into the mantissa,
		// as long as it stays an exact integer (<= 10^15).
		if exp > 22 {
			f *= float64pow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * float64pow10[exp], true
	case exp < 0 && exp >= -22:
		return f / float64pow10[-exp], true
	}
	return 0, false
}

// eiselLemire is the Eisel–Lemire conversion strconv tries second
// (https://nigeltao.github.io/blog/2020/eisel-lemire.html): mant·10^exp
// from one or two 64×64-bit products with a 128-bit power of ten. It
// reports false where 128 bits cannot settle the rounding (a halfway case,
// or a product whose dropped bits might carry into the kept ones), outside
// normal float64 range and for a zero mantissa (exactFloat takes those),
// and the caller falls back to strconv; what it returns is strconv's
// answer.
func eiselLemire(mant uint64, exp int, neg bool) (float64, bool) {
	if mant == 0 || exp < pow10MinExp || exp > pow10MaxExp {
		return 0, false
	}
	// Normalization.
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	const bias = 1023
	retExp2 := uint64(217706*exp>>16+64+bias) - uint64(clz)
	// Multiplication.
	pow := &pow10Table[exp-pow10MinExp]
	xHi, xLo := bits.Mul64(mant, pow[1])
	// Wider approximation.
	if xHi&0x1FF == 0x1FF && xLo+mant < mant {
		yHi, yLo := bits.Mul64(mant, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+mant < mant {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}
	// Shifting to 54 bits.
	msb := xHi >> 63
	retMant := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	// Halfway ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMant&3 == 1 {
		return 0, false
	}
	// From 54 to 53 bits.
	retMant += retMant & 1
	retMant >>= 1
	if retMant>>53 > 0 {
		retMant >>= 1
		retExp2++
	}
	// retExp2 is unsigned: 0 (or wrapped below it) is subnormal, 0x7FF and
	// up is Inf or NaN.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := retExp2<<52 | retMant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// The exponent range of pow10Table, both bounds inclusive.
const (
	pow10MinExp = -348
	pow10MaxExp = +347
)

// pow10Table holds, for every exp in [pow10MinExp, pow10MaxExp], the
// 128-bit mantissa of 10^exp rounded down, as {low, high} 64-bit words
// with the high word's top bit set; the binary exponent is implied (see
// eiselLemire). It is strconv's detailedPowersOfTen, computed here instead
// of listed.
var pow10Table = buildPow10Table()

// buildPow10Table computes pow10Table exactly with math/big: 10^e shifted
// to 128 bits for e >= 0, and ⌊2^(127+b) / 10^−e⌋ for e < 0, where b is
// the bit length of 10^−e, which always has exactly 128 bits.
func buildPow10Table() *[pow10MaxExp - pow10MinExp + 1][2]uint64 {
	var t [pow10MaxExp - pow10MinExp + 1][2]uint64
	ten := big.NewInt(10)
	low := new(big.Int).SetUint64(math.MaxUint64)
	var q, word big.Int
	put := func(e int) {
		t[e-pow10MinExp][0] = word.And(&q, low).Uint64()
		t[e-pow10MinExp][1] = word.Rsh(&q, 64).Uint64()
	}
	p := big.NewInt(1)
	for e := 0; e <= pow10MaxExp; e++ {
		if l := p.BitLen(); l > 128 {
			q.Rsh(p, uint(l-128))
		} else {
			q.Lsh(p, uint(128-l))
		}
		put(e)
		p.Mul(p, ten)
	}
	var num big.Int
	p.SetInt64(1)
	for e := -1; e >= pow10MinExp; e-- {
		p.Mul(p, ten)
		num.Lsh(big.NewInt(1), uint(127+p.BitLen()))
		q.Quo(&num, p)
		put(e)
	}
	return &t
}
