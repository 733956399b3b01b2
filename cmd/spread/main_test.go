package main

import (
	"bytes"
	"testing"
)

// TestSpreadGolden pins the full report for three seeded runs, one per
// adversary family. The sparklines quantize the per-round knowledge,
// innovation and decodable curves, and the header lines carry the
// completion round and final knowledge, so any change to how rounds are
// recorded or summarized shows up here.
func TestSpreadGolden(t *testing.T) {
	cases := []struct {
		n    int
		adv  string
		seed int64
		want string
	}{
		{32, "random", 1, `coded indexed broadcast, n = k = 32, d = 8, adversary = random, seed = 1

rounds observed: 272, final knowledge min/mean/max: 32/32.0/32
all nodes complete at round 19
mean knowledge:  ▁▃▆▇▇███████████████████████████████████████████████████████
innovation rate: ▇█▅▂▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁
decodable toks:  ▁▁▃▅▇███████████████████████████████████████████████████████
first round decoding a non-initial token (mean >= 2): 0
`},
		{16, "rotating-path", 3, `coded indexed broadcast, n = k = 16, d = 8, adversary = rotating-path, seed = 3

rounds observed: 144, final knowledge min/mean/max: 16/16.0/16
all nodes complete at round 11
mean knowledge:  ▁▂▄▆▇▇██████████████████████████████████████████████████████
innovation rate: ▆▇█▆▃▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁
decodable toks:  ▁▁▂▂▅▇██████████████████████████████████████████████████████
first round decoding a non-initial token (mean >= 2): 0
`},
		{24, "static-path", 5, `coded indexed broadcast, n = k = 24, d = 8, adversary = static-path, seed = 5

rounds observed: 208, final knowledge min/mean/max: 24/24.0/24
all nodes complete at round 57
mean knowledge:  ▁▁▂▃▃▄▄▅▅▆▆▆▇▇▇▇▇▇▇█████████████████████████████████████████
innovation rate: █▇▆▆▆▅▄▄▄▄▃▃▂▂▂▂▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁
decodable toks:  ▁▁▂▂▃▄▄▅▅▅▆▆▆▆▆▇▇▇▇█████████████████████████████████████████
first round decoding a non-initial token (mean >= 2): 1
`},
	}
	for _, tc := range cases {
		t.Run(tc.adv, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, tc.n, 8, tc.adv, tc.seed); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != tc.want {
				t.Errorf("output drifted:\n got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}
