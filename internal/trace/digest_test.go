package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"lard/internal/config"
)

// streamDigest hashes every core's full stream, in core order: each op as
// its address, gap, type, class and barrier flag in a fixed little-endian
// layout, each core closed by its op count so that no two splits of the
// same ops into cores hash alike.
func streamDigest(p Profile, cfg *config.Config, scale float64, seed uint64) string {
	h := sha256.New()
	w := Generate(p, cfg, scale, seed)
	buf := make([]Op, 97) // not a divisor of any phase length
	var rec [13]byte
	for _, s := range w.Streams {
		var count uint64
		for {
			n := s.Fill(buf)
			if n == 0 {
				break
			}
			for _, op := range buf[:n] {
				binary.LittleEndian.PutUint64(rec[0:], uint64(op.Addr))
				binary.LittleEndian.PutUint16(rec[8:], op.Gap)
				rec[10] = byte(op.Type)
				rec[11] = byte(op.Class)
				rec[12] = 0
				if op.Barrier {
					rec[12] = 1
				}
				h.Write(rec[:])
			}
			count += uint64(n)
		}
		binary.LittleEndian.PutUint64(rec[0:8], count)
		h.Write(rec[:8])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// smallStreamDigests pins every profile's streams at config.Small(),
// OpsScale 1, seed 3. The golden grid simulates only three profiles;
// these digests cover every generator branch (migratory hand-off, page
// false sharing, owner-phase writes) op for op, and at full length every
// region cursor wraps at least once, so a generator rewrite that changes
// a single address fails here.
var smallStreamDigests = map[string]string{
	"RADIX":       "78758f3549d2b9b0b03b3cfd9e1b131c0f0b1de76a548a4551681d08477ea241",
	"FFT":         "aa66864916cec6fc1ae3d3514034c719648ed9e32e951e9b33181132a21d1ddb",
	"LU-C":        "5ee3d473eb412f488ebff88c4a1f0a79a52ee05e653643bd4f376e9a1739ac52",
	"LU-NC":       "f2426b33753159233156dcdc04db4edf9f95c8c637cb82d125e8ab4377d08aa5",
	"CHOLESKY":    "5510960575f6c69ea350943241a77b71e308fda1da4654d1cbc22ccf014b65e3",
	"BARNES":      "49c2fdc1b8d97a0d114e0ef5497a3e6221952faa9ee0285aa4fa7b2e3e7036cf",
	"OCEAN-C":     "c89818bb30a903ad1482d5b575e431232fae246273b62ab1a7e7a509389f9f0b",
	"OCEAN-NC":    "7433fd6e83fdaceb695c604b86699c7d5e95c638a7c2ff31ea12b48e30b8fde7",
	"WATER-NSQ":   "4074d63db5df8254e78dd1fbe27b207c7ccb4cf37699086d2a8c31402a856c15",
	"RAYTRACE":    "4547075b3e75f7cbf3a67b0e3ae171b88f35f437f5dd6a25407a73a10def30ed",
	"VOLREND":     "ac5fba3d878909e21f1b11a9904d79939a37dd93753ec3df4f13a648ab360ad0",
	"BLACKSCH.":   "8818a861207073b1e4da01cc35485b7a985f9f50b447c94091adb6d7f73b33a2",
	"SWAPTIONS":   "3c10703eee3e59aba43c364c1c20649860d24cc20cc510bf58f485ae0ad9cdda",
	"FLUIDANIM.":  "c5d91616ba0c4a2f920bc2cd826366837236f00a1e48a47748419ad9217ab742",
	"STREAMCLUS.": "e5cee78ad666edbfc0eabd0f458caf1da868990bf44857919276e8a1e457fe5e",
	"DEDUP":       "6dbebd1a772318daed92205a804b5a397f2abe1aed99e8ca428e1a5ffb6637ae",
	"FERRET":      "44d6f19bde574908ad8266cdafe2ae92fc828cc3d0e744dc8cab0a8b4b2a7863",
	"BODYTRACK":   "89992fbad171fde804c114461a15b2dbc033e6e2b3065f189c82b878b83fe9fb",
	"FACESIM":     "7ce8021468108e02cbff376f02120118f71e93f167c464a0a80664b5773dbdfd",
	"PATRICIA":    "d6409d271cac479840ed0ac4188c3d5e50d91518425f027da99636764936432b",
	"CONCOMP":     "f9550c95a336c77f93de65d6cae990c4559c646fc36abafbdc773bf373c5e301",
}

// wideStreamDigests pins three profiles at config.Default64(), OpsScale
// 0.1, seed 3: the 64-core core-count arithmetic (desynchronized start
// offsets, owner cores, migratory blocks) differs from the 16-core one.
var wideStreamDigests = map[string]string{
	"DEDUP":  "69d97fdab75efb8f0852c932cdd303f74aaa6e435b42c8b9bdcac5f2a77cb7f2",
	"BARNES": "6f77b4a29537aab6e6799231e39b815f7f4621be6fc9e910c6a3df30159d049a",
	"LU-NC":  "680b0bf8cc1195a7f156e7672407d3f2f89f268db9dbd8fa01e20d34cb6a1406",
}

func TestStreamDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("hashes every stream of every profile")
	}
	small := config.Small()
	for _, p := range Profiles {
		if got, want := streamDigest(p, small, 1, 3), smallStreamDigests[p.Name]; got != want {
			t.Errorf("%s at 16 cores: stream digest %s, want %s", p.Name, got, want)
		}
	}
	wide := config.Default64()
	for _, name := range []string{"DEDUP", "BARNES", "LU-NC"} {
		p := mustProfile(t, name)
		if got, want := streamDigest(p, wide, 0.1, 3), wideStreamDigests[name]; got != want {
			t.Errorf("%s at 64 cores: stream digest %s, want %s", name, got, want)
		}
	}
}
