package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/kernels"
	"repro/internal/search"
)

// goldenObjectives are the objective spellings the stream goldens cover:
// the default ("") plus every registry name.
var goldenObjectives = []string{"", "merit", "reuse", "area", "energy", "latency", "class", "pareto"}

// goldenParams is the job TestRunStreamGoldenHashes runs for one objective
// and reuse setting. The latency budget of 1 cycle binds (it excludes
// multi-cycle AFUs), and the zero memory-class weight keeps the drive off
// blocks with loads or stores, so both streams differ from plain merit.
func goldenParams(objective string, reuse bool) Params {
	p := DefaultParams()
	p.Objective, p.Reuse = objective, reuse
	switch objective {
	case "latency":
		p.LatencyBudget = 1
	case "class":
		p.ClassWeights = map[string]float64{"memory": 0}
	}
	return p
}

// streamGoldens are the sha256 digests of the service.Run NDJSON stream of
// every kernels.All() application under goldenParams, keyed
// "kernel/objective/reuse" (objective "default" for ""). They pin the
// application-level flow byte for byte, independently of how the code
// that produces it is layered: a refactor that moves the greedy drive or
// the reuse claiming must leave every digest unchanged.
var streamGoldens = map[string]string{
	"conven00/default/true":       "3a1e51fa1f19fe7e0f82c17517579875cff127d7260f8b8202938dcbbc2d909c",
	"conven00/default/false":      "3a1e51fa1f19fe7e0f82c17517579875cff127d7260f8b8202938dcbbc2d909c",
	"conven00/merit/true":         "eed073eebd00ddcea2298c04ee415bd7e52ff0d8fba0ab76165071c07afab719",
	"conven00/merit/false":        "eed073eebd00ddcea2298c04ee415bd7e52ff0d8fba0ab76165071c07afab719",
	"conven00/reuse/true":         "eed073eebd00ddcea2298c04ee415bd7e52ff0d8fba0ab76165071c07afab719",
	"conven00/reuse/false":        "eed073eebd00ddcea2298c04ee415bd7e52ff0d8fba0ab76165071c07afab719",
	"conven00/area/true":          "eed073eebd00ddcea2298c04ee415bd7e52ff0d8fba0ab76165071c07afab719",
	"conven00/area/false":         "eed073eebd00ddcea2298c04ee415bd7e52ff0d8fba0ab76165071c07afab719",
	"conven00/energy/true":        "eed073eebd00ddcea2298c04ee415bd7e52ff0d8fba0ab76165071c07afab719",
	"conven00/energy/false":       "eed073eebd00ddcea2298c04ee415bd7e52ff0d8fba0ab76165071c07afab719",
	"conven00/latency/true":       "eed073eebd00ddcea2298c04ee415bd7e52ff0d8fba0ab76165071c07afab719",
	"conven00/latency/false":      "eed073eebd00ddcea2298c04ee415bd7e52ff0d8fba0ab76165071c07afab719",
	"conven00/class/true":         "89701235bd771aaca026e2ba86acbeee20bcbff7672ee6e336b8c869a25e9293",
	"conven00/class/false":        "89701235bd771aaca026e2ba86acbeee20bcbff7672ee6e336b8c869a25e9293",
	"conven00/pareto/true":        "f8c3c4856b07835d276b0482b9734b6b576f4ba1fdb6e1f4c442dfb42b8d3fed",
	"conven00/pareto/false":       "f8c3c4856b07835d276b0482b9734b6b576f4ba1fdb6e1f4c442dfb42b8d3fed",
	"fbital00/default/true":       "1447205139e7db2e1864878d6fb24f35a416081be03a7390283f04d51fd4a122",
	"fbital00/default/false":      "1447205139e7db2e1864878d6fb24f35a416081be03a7390283f04d51fd4a122",
	"fbital00/merit/true":         "b7722d04562e58264456c91d28baa5e35d9f133129617599b225b1ea6afd89c6",
	"fbital00/merit/false":        "b7722d04562e58264456c91d28baa5e35d9f133129617599b225b1ea6afd89c6",
	"fbital00/reuse/true":         "b7722d04562e58264456c91d28baa5e35d9f133129617599b225b1ea6afd89c6",
	"fbital00/reuse/false":        "b7722d04562e58264456c91d28baa5e35d9f133129617599b225b1ea6afd89c6",
	"fbital00/area/true":          "b7722d04562e58264456c91d28baa5e35d9f133129617599b225b1ea6afd89c6",
	"fbital00/area/false":         "b7722d04562e58264456c91d28baa5e35d9f133129617599b225b1ea6afd89c6",
	"fbital00/energy/true":        "b7722d04562e58264456c91d28baa5e35d9f133129617599b225b1ea6afd89c6",
	"fbital00/energy/false":       "b7722d04562e58264456c91d28baa5e35d9f133129617599b225b1ea6afd89c6",
	"fbital00/latency/true":       "58048802b0bfd5aec6baa7419db956b1120041c6aff1124695ec4bdf611a8da8",
	"fbital00/latency/false":      "58048802b0bfd5aec6baa7419db956b1120041c6aff1124695ec4bdf611a8da8",
	"fbital00/class/true":         "cd4184abee2ee2352d25b25b5f729c91139ed095e5d5e511287bac8db86f7f87",
	"fbital00/class/false":        "cd4184abee2ee2352d25b25b5f729c91139ed095e5d5e511287bac8db86f7f87",
	"fbital00/pareto/true":        "ff8cfc23d026437b454bb67912b2b77e5ca33fffafa61e07e04c77db8d4cc403",
	"fbital00/pareto/false":       "ff8cfc23d026437b454bb67912b2b77e5ca33fffafa61e07e04c77db8d4cc403",
	"viterb00/default/true":       "0dea8598a46b98455a1023836ab9bc20120d75a5adeac314f0202fdd7a763d05",
	"viterb00/default/false":      "6db2fd7615fbb637357cfe1e9e4bb83669ff0690d124ab28aaaceccf05edc2ec",
	"viterb00/merit/true":         "dbcd5a5a8c8185571b15932634e04af4c37df801da438ee03cfdc497e60b9fde",
	"viterb00/merit/false":        "5548438c13a835a1adb89212dfed4bb396056b2a3fd9f627e39ae704f67e91c2",
	"viterb00/reuse/true":         "64c663d2a7f092d02214f9789d5ca439eca867fd8925f30fa6098990e80bb9a4",
	"viterb00/reuse/false":        "c51ef744867aea7681c9de1cb38122f57c3909cdf51d00849015be2099c93597",
	"viterb00/area/true":          "10987e8e1c11af896074c739ac12b8abc772c624f505e1ef4663c37dff430bf8",
	"viterb00/area/false":         "ca13cccf7e6a24f5f4bf3bd99fd726a22b3383b91ec7cb174f03be28cecb6214",
	"viterb00/energy/true":        "dbcd5a5a8c8185571b15932634e04af4c37df801da438ee03cfdc497e60b9fde",
	"viterb00/energy/false":       "5548438c13a835a1adb89212dfed4bb396056b2a3fd9f627e39ae704f67e91c2",
	"viterb00/latency/true":       "dbcd5a5a8c8185571b15932634e04af4c37df801da438ee03cfdc497e60b9fde",
	"viterb00/latency/false":      "5548438c13a835a1adb89212dfed4bb396056b2a3fd9f627e39ae704f67e91c2",
	"viterb00/class/true":         "dbcd5a5a8c8185571b15932634e04af4c37df801da438ee03cfdc497e60b9fde",
	"viterb00/class/false":        "5548438c13a835a1adb89212dfed4bb396056b2a3fd9f627e39ae704f67e91c2",
	"viterb00/pareto/true":        "dce132bada7de5cd61c7504b236e6133f33d875c0ab1d8ca769c98d277458a98",
	"viterb00/pareto/false":       "70500a4aa0c4d46597e8442e453a3b2d1346a3574d95f02e5292de5b0be8fd2a",
	"autcor00/default/true":       "e13776511af8712f32968360bc2bfd1d995fa949943cbaf9f767b1555c6e1a00",
	"autcor00/default/false":      "26ddc9aacbf7e71cd984148f0e67bb8e66dfbe16ba7b870a1e12cbbe3d3c8fb5",
	"autcor00/merit/true":         "bce1847b4c413ecda653ed06e1067ceb03e358e7e56ae792b6ced4c4dc16ca20",
	"autcor00/merit/false":        "d7f98e2e3a17e795ad93d59797124c28fe411ec61ec839cf8ca17fec17ab68f4",
	"autcor00/reuse/true":         "deccd9b7b9bc84d6ac427b37fc373bdee86b84a9ab0fe863a175ed757cc4a01f",
	"autcor00/reuse/false":        "ed5e208689974693aed4857ac7ddbda0a241e38fb5a9c2650fe4a364ce6f9f0d",
	"autcor00/area/true":          "bce1847b4c413ecda653ed06e1067ceb03e358e7e56ae792b6ced4c4dc16ca20",
	"autcor00/area/false":         "d7f98e2e3a17e795ad93d59797124c28fe411ec61ec839cf8ca17fec17ab68f4",
	"autcor00/energy/true":        "bce1847b4c413ecda653ed06e1067ceb03e358e7e56ae792b6ced4c4dc16ca20",
	"autcor00/energy/false":       "d7f98e2e3a17e795ad93d59797124c28fe411ec61ec839cf8ca17fec17ab68f4",
	"autcor00/latency/true":       "a687af89d351aa4b1f8e8d9ac0b826eebe5c2230f7b1b70c4896d9e2ee41ffe7",
	"autcor00/latency/false":      "0e9ce3a7ca78a4cf44e8934a7cd262b08cba0155fe9b8b2601302e10dbff3cd2",
	"autcor00/class/true":         "032499af4b2acb092e4dc4746931215025fc58e95c051a54a9a0503fbd3c2f5b",
	"autcor00/class/false":        "d7f98e2e3a17e795ad93d59797124c28fe411ec61ec839cf8ca17fec17ab68f4",
	"autcor00/pareto/true":        "96c336d5cbf44693f3f4182a1aea8d06bb9662ffa15fb7db8d04244322cc088f",
	"autcor00/pareto/false":       "41bc8f54fed179360e05ec740ab89d356cde8620c1bb166f8a2ac61a03f47e6b",
	"adpcm_decoder/default/true":  "56d1962ae4f3a42268ddf149ef164fcc1274e4034615804ea01ad9b915979733",
	"adpcm_decoder/default/false": "9826f38168647d4802d67d6b1ad936e24c9f7a36441bf7fc6487ee025093e844",
	"adpcm_decoder/merit/true":    "d3b2122993e02861e95a974771a0a51c5893f3467e0b0c3daf3747fcba95132d",
	"adpcm_decoder/merit/false":   "d3b2122993e02861e95a974771a0a51c5893f3467e0b0c3daf3747fcba95132d",
	"adpcm_decoder/reuse/true":    "a9ee8419026e1ea844d2062c802b6b5eda7fdfb8c9d4b6d23a7aff5f7ba3d41b",
	"adpcm_decoder/reuse/false":   "ef8471a04f9c63ed84a1b1bf34efad559a1115a2089082004b7d9d693fe2bef3",
	"adpcm_decoder/area/true":     "b9bbf0a084e33b6a00b38bed350d4b667e539b5f54c5c0974bddf913833ea59f",
	"adpcm_decoder/area/false":    "ef8471a04f9c63ed84a1b1bf34efad559a1115a2089082004b7d9d693fe2bef3",
	"adpcm_decoder/energy/true":   "b9bbf0a084e33b6a00b38bed350d4b667e539b5f54c5c0974bddf913833ea59f",
	"adpcm_decoder/energy/false":  "ef8471a04f9c63ed84a1b1bf34efad559a1115a2089082004b7d9d693fe2bef3",
	"adpcm_decoder/latency/true":  "2fa08eff16c572e7f5ec2d468ca545c58a698f0f663969661f7907e3d413a8b0",
	"adpcm_decoder/latency/false": "ceea77d4d703f52f084cfdb168bd34f2712821185e9a819d8d01817ea0295a9f",
	"adpcm_decoder/class/true":    "2b8db7a4438297ec9de8651268be84c54afa43bb0f9529ee160253eb1ec1c40e",
	"adpcm_decoder/class/false":   "2b8db7a4438297ec9de8651268be84c54afa43bb0f9529ee160253eb1ec1c40e",
	"adpcm_decoder/pareto/true":   "a7d9fa8ac1cb283eaa3b87e3515c10642d33fc63e56515c2a8d0efb757a9fc94",
	"adpcm_decoder/pareto/false":  "a9a14936939e6edd7270fa3a9c7c4d69f99d4659c4b8ec54e47c7883207cf95e",
	"adpcm_coder/default/true":    "50f41dc534d67b0c5d926a867a5252d398cf5e5bd4277e0cc11ebdc0cce4e87a",
	"adpcm_coder/default/false":   "653aaf9f163a8aff4939d88c9da09d64ede9868ce5ba8a83f52d0a51697aed7a",
	"adpcm_coder/merit/true":      "f908f0e39c82e7df06947c243d87ecec5d9267a54feff60511dc19cf4d83aa2d",
	"adpcm_coder/merit/false":     "de75b011f3afbe44ac29c0c87e7c5acfb3e1142c61d30f2a80a91ef518f1be9c",
	"adpcm_coder/reuse/true":      "b887b970e484de9185aade65dec2a63e18be7ead991684ce72191d4e88275a66",
	"adpcm_coder/reuse/false":     "7065328b70fd75e062ba114f8d8429339fabf7d9f6a0bd999b0775a4f32bf213",
	"adpcm_coder/area/true":       "f908f0e39c82e7df06947c243d87ecec5d9267a54feff60511dc19cf4d83aa2d",
	"adpcm_coder/area/false":      "de75b011f3afbe44ac29c0c87e7c5acfb3e1142c61d30f2a80a91ef518f1be9c",
	"adpcm_coder/energy/true":     "f908f0e39c82e7df06947c243d87ecec5d9267a54feff60511dc19cf4d83aa2d",
	"adpcm_coder/energy/false":    "d40f202f6b46acce116d9a5cb90b34805a82cf81f93c053ed09926054475d832",
	"adpcm_coder/latency/true":    "6c4f111c05023cfd97832896bf10e32e89eaa1e89ca0c8144a40034175fb5df4",
	"adpcm_coder/latency/false":   "89a2ea67853eae5ff95a0a45699ac3277f7c1569078917561236f53bec86b4b4",
	"adpcm_coder/class/true":      "eb86b2398ed5792b484522fbff7ddd8f7dbeda41433ca969c7c39c4ad09e1983",
	"adpcm_coder/class/false":     "eb86b2398ed5792b484522fbff7ddd8f7dbeda41433ca969c7c39c4ad09e1983",
	"adpcm_coder/pareto/true":     "c932685be1fa8a8be1ca19a491537662d5e481c36273864d4254931dba862172",
	"adpcm_coder/pareto/false":    "ee9de37deeb8e5fda63a08bb25919512dd9eed818af5ad545909c8c04d14a42c",
	"fft00/default/true":          "81fef706c3ea3a27b59e11a6a93650db4a128a104e578b210c3c9d95cb0cbab2",
	"fft00/default/false":         "f5bf96c48d7361bbd6a1d05e98eef09162832e5d10375a9d9797f503d424222b",
	"fft00/merit/true":            "3d7368de34136469dc5d320a5a7f34bb00421503f355e9e1f5bfa6ab053f7375",
	"fft00/merit/false":           "d28e686ec50bc9f9a0c6c67150e36a71643cd9fdc2506c66164729ce7d902d1a",
	"fft00/reuse/true":            "3d7368de34136469dc5d320a5a7f34bb00421503f355e9e1f5bfa6ab053f7375",
	"fft00/reuse/false":           "d28e686ec50bc9f9a0c6c67150e36a71643cd9fdc2506c66164729ce7d902d1a",
	"fft00/area/true":             "519e406e078eac6c6bdd45d5a28992b4bfc2ca2843386b0e6da000b4b658d66d",
	"fft00/area/false":            "d28e686ec50bc9f9a0c6c67150e36a71643cd9fdc2506c66164729ce7d902d1a",
	"fft00/energy/true":           "3d7368de34136469dc5d320a5a7f34bb00421503f355e9e1f5bfa6ab053f7375",
	"fft00/energy/false":          "d28e686ec50bc9f9a0c6c67150e36a71643cd9fdc2506c66164729ce7d902d1a",
	"fft00/latency/true":          "d952c8ce5c7288b2c4e05bbbfa89c052a4c8d074605da8ff3d9f46b860b7bc6b",
	"fft00/latency/false":         "1b5b2a9e604ca5ce8f3d13c23db9432b95aaaa090ce0f5a3f320c4d3fe930203",
	"fft00/class/true":            "7e638c28d66a5db40a677463646eeffcb918dbe12a4802a96e6b6200dcefe7ed",
	"fft00/class/false":           "d28e686ec50bc9f9a0c6c67150e36a71643cd9fdc2506c66164729ce7d902d1a",
	"fft00/pareto/true":           "38319e90e4072eecfebe8db25d92b57df54b2b536ed123b398316b8d8f9fe8c6",
	"fft00/pareto/false":          "e6703ba5beed74633c2dd8c3eb68419dc9f98592d1f34f40962e508d1b1a2518",
}

// TestRunStreamGoldenHashes pins the NDJSON bytes of the ISEGEN flow for
// every kernel × objective × reuse combination against recorded digests.
func TestRunStreamGoldenHashes(t *testing.T) {
	for _, k := range kernels.All() {
		for _, objective := range goldenObjectives {
			for _, reuse := range []bool{true, false} {
				name := objective
				if name == "" {
					name = "default"
				}
				key := fmt.Sprintf("%s/%s/%t", k.Name, name, reuse)
				var buf bytes.Buffer
				if err := Run(context.Background(), k.App, goldenParams(objective, reuse), search.NewCostCache(), NDJSONEmitter(&buf)); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != streamGoldens[key] {
					t.Errorf("%s: stream digest %s, want %s", key, got, streamGoldens[key])
				}
			}
		}
	}
}
