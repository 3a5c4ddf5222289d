package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dfgio"
	"repro/internal/kernels"
	"repro/internal/search"
	"repro/internal/service"
)

// runMainEnv makes the test binary act as the isegen command: TestMain
// calls main() with the process arguments when it is set, so the tests
// below drive the real flag parsing and exit codes by re-executing
// themselves.
const runMainEnv = "ISEGEN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// isegenRun is the outcome of one command run.
type isegenRun struct {
	stdout, stderr string
	code           int
}

// runIsegen executes the command with args and returns its output and exit
// code.
func runIsegen(t *testing.T, args ...string) isegenRun {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	// Under -race every child would otherwise sleep a second at exit.
	cmd.Env = append(os.Environ(), runMainEnv+"=1", "GORACE="+os.Getenv("GORACE")+" atexit_sleep_ms=0")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
	default:
		t.Fatalf("isegen %v: %v", args, err)
	}
	return isegenRun{stdout: out.String(), stderr: errOut.String(), code: cmd.ProcessState.ExitCode()}
}

// kernelFiles writes every Figure 4 kernel as a .dfg file under one
// temporary directory and returns the paths keyed by kernel name.
func kernelFiles(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{}
	for _, k := range kernels.All() {
		path := filepath.Join(dir, k.Name+".dfg")
		var buf bytes.Buffer
		if err := dfgio.WriteApplication(&buf, k.App); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		files[k.Name] = path
	}
	return files
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// textObjectives are the objective settings the text goldens cover, keyed
// by the name used in the golden keys: the default plus every registry
// objective, with the knobs that make latency and class bind.
var textObjectives = []struct {
	name string
	args []string
}{
	{"default", nil},
	{"merit", []string{"-objective", "merit"}},
	{"reuse", []string{"-objective", "reuse"}},
	{"area", []string{"-objective", "area"}},
	{"energy", []string{"-objective", "energy"}},
	{"latency", []string{"-objective", "latency", "-latency-budget", "1"}},
	{"class", []string{"-objective", "class", "-class-weights", "memory=0.5"}},
	{"pareto", []string{"-objective", "pareto"}},
}

// textGoldens are the sha256 digests of the text report of every Figure 4
// kernel under every textObjectives setting, with reuse on and off
// (-noreuse), keyed "kernel/objective/reuse".
var textGoldens = map[string]string{
	"conven00/default/true":       "1b8d61e9833ccbe00c749162a014a12712040b9d4d25f1a8888c954979b518b1",
	"conven00/default/false":      "1b8d61e9833ccbe00c749162a014a12712040b9d4d25f1a8888c954979b518b1",
	"conven00/merit/true":         "870c0cdf12891aa929a08f0770fd77a646a1f434a4494a797f467b29e896509b",
	"conven00/merit/false":        "870c0cdf12891aa929a08f0770fd77a646a1f434a4494a797f467b29e896509b",
	"conven00/reuse/true":         "870c0cdf12891aa929a08f0770fd77a646a1f434a4494a797f467b29e896509b",
	"conven00/reuse/false":        "870c0cdf12891aa929a08f0770fd77a646a1f434a4494a797f467b29e896509b",
	"conven00/area/true":          "870c0cdf12891aa929a08f0770fd77a646a1f434a4494a797f467b29e896509b",
	"conven00/area/false":         "870c0cdf12891aa929a08f0770fd77a646a1f434a4494a797f467b29e896509b",
	"conven00/energy/true":        "870c0cdf12891aa929a08f0770fd77a646a1f434a4494a797f467b29e896509b",
	"conven00/energy/false":       "870c0cdf12891aa929a08f0770fd77a646a1f434a4494a797f467b29e896509b",
	"conven00/latency/true":       "870c0cdf12891aa929a08f0770fd77a646a1f434a4494a797f467b29e896509b",
	"conven00/latency/false":      "870c0cdf12891aa929a08f0770fd77a646a1f434a4494a797f467b29e896509b",
	"conven00/class/true":         "870c0cdf12891aa929a08f0770fd77a646a1f434a4494a797f467b29e896509b",
	"conven00/class/false":        "870c0cdf12891aa929a08f0770fd77a646a1f434a4494a797f467b29e896509b",
	"conven00/pareto/true":        "ca4fc3e9c3eb566a4f32e594bb8e9dcee84426e828d03a25ff26f04e0ad55ca7",
	"conven00/pareto/false":       "ca4fc3e9c3eb566a4f32e594bb8e9dcee84426e828d03a25ff26f04e0ad55ca7",
	"fbital00/default/true":       "8a418b30fad3bc394f31b5d8f086e99e070dbf0bd8d8fd9137120abb1d4d26fc",
	"fbital00/default/false":      "8a418b30fad3bc394f31b5d8f086e99e070dbf0bd8d8fd9137120abb1d4d26fc",
	"fbital00/merit/true":         "53c98ebbeabf275893b02d9efe6c6d14496c6c66cd314173bac65f8c626e1370",
	"fbital00/merit/false":        "53c98ebbeabf275893b02d9efe6c6d14496c6c66cd314173bac65f8c626e1370",
	"fbital00/reuse/true":         "53c98ebbeabf275893b02d9efe6c6d14496c6c66cd314173bac65f8c626e1370",
	"fbital00/reuse/false":        "53c98ebbeabf275893b02d9efe6c6d14496c6c66cd314173bac65f8c626e1370",
	"fbital00/area/true":          "53c98ebbeabf275893b02d9efe6c6d14496c6c66cd314173bac65f8c626e1370",
	"fbital00/area/false":         "53c98ebbeabf275893b02d9efe6c6d14496c6c66cd314173bac65f8c626e1370",
	"fbital00/energy/true":        "53c98ebbeabf275893b02d9efe6c6d14496c6c66cd314173bac65f8c626e1370",
	"fbital00/energy/false":       "53c98ebbeabf275893b02d9efe6c6d14496c6c66cd314173bac65f8c626e1370",
	"fbital00/latency/true":       "2e4226480f975f7b1304b2816144200274904f11c8e6fbc0b821ec1b5c9ae2a4",
	"fbital00/latency/false":      "2e4226480f975f7b1304b2816144200274904f11c8e6fbc0b821ec1b5c9ae2a4",
	"fbital00/class/true":         "53c98ebbeabf275893b02d9efe6c6d14496c6c66cd314173bac65f8c626e1370",
	"fbital00/class/false":        "53c98ebbeabf275893b02d9efe6c6d14496c6c66cd314173bac65f8c626e1370",
	"fbital00/pareto/true":        "8a50f2f2557e84fde0a39daca1dc1d9c4060153df42c3a5de33a13e3e7c30024",
	"fbital00/pareto/false":       "8a50f2f2557e84fde0a39daca1dc1d9c4060153df42c3a5de33a13e3e7c30024",
	"viterb00/default/true":       "f40b6f671f3b15b01eda6eac2b9f282914a56288422c7e37e5134c6e95ecfb00",
	"viterb00/default/false":      "e133c72ecb1e741b0193bb3f6c1bf4636e04778951a9ebe969c491e4dd6dc6ed",
	"viterb00/merit/true":         "cb0f63221d2fd892f7b7d5f3d8ee8c215dde74edec3261b4df35e159f0038a29",
	"viterb00/merit/false":        "a275e267ea11043a5a57234ff4e54f343219eed7d2ce0a740291e752426e2b4d",
	"viterb00/reuse/true":         "143257737acfaa441f0cc2248184644109a3fa52479e7429de85bac36cf28f1d",
	"viterb00/reuse/false":        "936e531091091ea6374bf59ac4e97521f886816ca1d2894068b01668e0f67307",
	"viterb00/area/true":          "ec8e6b6b7547cbd66ed0f487180ffeab9fbe578ff401a5b58b9b4fc4ddbe6ce1",
	"viterb00/area/false":         "b287b8359b37daea7381302a2989b574afce94001ac03b515ae188ed3150471f",
	"viterb00/energy/true":        "cb0f63221d2fd892f7b7d5f3d8ee8c215dde74edec3261b4df35e159f0038a29",
	"viterb00/energy/false":       "a275e267ea11043a5a57234ff4e54f343219eed7d2ce0a740291e752426e2b4d",
	"viterb00/latency/true":       "cb0f63221d2fd892f7b7d5f3d8ee8c215dde74edec3261b4df35e159f0038a29",
	"viterb00/latency/false":      "a275e267ea11043a5a57234ff4e54f343219eed7d2ce0a740291e752426e2b4d",
	"viterb00/class/true":         "cb0f63221d2fd892f7b7d5f3d8ee8c215dde74edec3261b4df35e159f0038a29",
	"viterb00/class/false":        "a275e267ea11043a5a57234ff4e54f343219eed7d2ce0a740291e752426e2b4d",
	"viterb00/pareto/true":        "eb9da2900424c7167a969a6f04eefad5305ce0e4bca02cd3d3c8321b45ed5c78",
	"viterb00/pareto/false":       "260cc305c22d4c8ae9e598d92d37fc6d7d5a726a9bf1e2681474896e2c07dd4e",
	"autcor00/default/true":       "336953f2acae08063b070cf51dea0a5200414168d5da136ed868cf771c011885",
	"autcor00/default/false":      "3202c76a7f6f20a4be84a3fdeb68acd7548cfc98631124f3ddccfd048f2ba011",
	"autcor00/merit/true":         "169f3f4433a9db3bac57f194ef61e7278ad4c20bd57c4d37fca1b103ff3bbb07",
	"autcor00/merit/false":        "1d65310f98ea38846ad4b04ecd170b8f127f90a0e2213b1b7f732a4fd9165a91",
	"autcor00/reuse/true":         "48e38d0fda09e561b8f4682b78daf90f9deb4f7ce3d6cddf05c4562f8930ae01",
	"autcor00/reuse/false":        "ae8ad3ffc168bb57749ad50c4cc4762aec7a8a8d62e66ba51052eabd03741ac0",
	"autcor00/area/true":          "169f3f4433a9db3bac57f194ef61e7278ad4c20bd57c4d37fca1b103ff3bbb07",
	"autcor00/area/false":         "1d65310f98ea38846ad4b04ecd170b8f127f90a0e2213b1b7f732a4fd9165a91",
	"autcor00/energy/true":        "169f3f4433a9db3bac57f194ef61e7278ad4c20bd57c4d37fca1b103ff3bbb07",
	"autcor00/energy/false":       "1d65310f98ea38846ad4b04ecd170b8f127f90a0e2213b1b7f732a4fd9165a91",
	"autcor00/latency/true":       "d31480ccf5bcedc46732821c4015514d21134742ab9f30a3188a40c07c535993",
	"autcor00/latency/false":      "f34739a9f499a15f34ebed790a55e40b0514121ce821aee860a6ed7d0bead1c0",
	"autcor00/class/true":         "169f3f4433a9db3bac57f194ef61e7278ad4c20bd57c4d37fca1b103ff3bbb07",
	"autcor00/class/false":        "1d65310f98ea38846ad4b04ecd170b8f127f90a0e2213b1b7f732a4fd9165a91",
	"autcor00/pareto/true":        "40d5c506b5f1f0e1c2b0caf3259ddfb9ca33303a879045344df438f7a6b79184",
	"autcor00/pareto/false":       "0c89973cba3fee4a4872575e9540722e21a87f4ad7ce113cb6ff5b2ee598cecb",
	"adpcm_decoder/default/true":  "ebd3b8639e4e6c02da2e0bc00a42b9909816e87c8d01c5a3a8fb8504c106faed",
	"adpcm_decoder/default/false": "24bde65c1609d8f5ebcce74596a727d8580d8565c5b4b3128a6faf5006fcd22b",
	"adpcm_decoder/merit/true":    "440d64b26cf0b94252e064a2e8cd84ea1081ba7aea8e3ee7972ec2db1f60ce59",
	"adpcm_decoder/merit/false":   "440d64b26cf0b94252e064a2e8cd84ea1081ba7aea8e3ee7972ec2db1f60ce59",
	"adpcm_decoder/reuse/true":    "5040b64a7957c3951202498aee0cc1b41b21961dccfdcf92e8ef8979063af932",
	"adpcm_decoder/reuse/false":   "d34d58268022a9dbd41dcb270ef5c4836aa146f496630be0e246a591485bc380",
	"adpcm_decoder/area/true":     "5e81d3074b8febc5d3d367643bc55d45b06e3bf2503063eb88f6be02c4170336",
	"adpcm_decoder/area/false":    "d34d58268022a9dbd41dcb270ef5c4836aa146f496630be0e246a591485bc380",
	"adpcm_decoder/energy/true":   "5e81d3074b8febc5d3d367643bc55d45b06e3bf2503063eb88f6be02c4170336",
	"adpcm_decoder/energy/false":  "d34d58268022a9dbd41dcb270ef5c4836aa146f496630be0e246a591485bc380",
	"adpcm_decoder/latency/true":  "745600c178f1c13d0bc5981c8b889955674bdcfb7b2a0f2b597cac9edaf9304f",
	"adpcm_decoder/latency/false": "698e1da95c7d2eb8220baee43ff60ab5a6afb8afe161c99656358fe1da2203e7",
	"adpcm_decoder/class/true":    "440d64b26cf0b94252e064a2e8cd84ea1081ba7aea8e3ee7972ec2db1f60ce59",
	"adpcm_decoder/class/false":   "440d64b26cf0b94252e064a2e8cd84ea1081ba7aea8e3ee7972ec2db1f60ce59",
	"adpcm_decoder/pareto/true":   "67be72fa6474402c2626e8310ee757c2e01ddcfeb9767afe846453893a855ee0",
	"adpcm_decoder/pareto/false":  "dc054d1d6b7ff234e61fee9ef0cdfeff605f40ccd892c375a933286ba19dc956",
	"adpcm_coder/default/true":    "635e7f143b308c1d150dfc5b1eba6f6a51f6680af540d9fed7558a00f37f29f2",
	"adpcm_coder/default/false":   "847390e76c502663179a332310b897c31de6ff26adf26ac817b68903faaae052",
	"adpcm_coder/merit/true":      "7986e000f97d7dde67a143af3a98452c3cd5af8061017688887635f8cf4e8c1a",
	"adpcm_coder/merit/false":     "0a54d1ddb9fd448279d4c2d7022fe9b50f79f274c9a0fa14686259115dc56eb0",
	"adpcm_coder/reuse/true":      "be36426f3276a182d3adf8cc84f8ab55ef24aaa7d52ef17bba2e00acffdd0ba6",
	"adpcm_coder/reuse/false":     "d002fc9d680ce6fbc1c95e0e5003bed153ca3315da7c348f4d098cbcbf24d7d6",
	"adpcm_coder/area/true":       "7986e000f97d7dde67a143af3a98452c3cd5af8061017688887635f8cf4e8c1a",
	"adpcm_coder/area/false":      "0a54d1ddb9fd448279d4c2d7022fe9b50f79f274c9a0fa14686259115dc56eb0",
	"adpcm_coder/energy/true":     "7986e000f97d7dde67a143af3a98452c3cd5af8061017688887635f8cf4e8c1a",
	"adpcm_coder/energy/false":    "dd70e6a62c292fbc8da5d2484ff29477b880a71176931bef1861e5eb26cbb733",
	"adpcm_coder/latency/true":    "1f0cb604675e37146a47233d80caa31c457fed27f8e47b2ca450dc5d6e2f7f03",
	"adpcm_coder/latency/false":   "95d68e86a108621886a686e5f5086d225197bb4deed2e0b27c602a936b85b9b6",
	"adpcm_coder/class/true":      "7986e000f97d7dde67a143af3a98452c3cd5af8061017688887635f8cf4e8c1a",
	"adpcm_coder/class/false":     "0a54d1ddb9fd448279d4c2d7022fe9b50f79f274c9a0fa14686259115dc56eb0",
	"adpcm_coder/pareto/true":     "0cc53684e1c841dc635177eaae37ad2ba1538e4ab4fda0b026cbba9594935e84",
	"adpcm_coder/pareto/false":    "06f880d7272e0adac0bcf1f0114ac87649eaccfd8318558af3daaa967aeb4f33",
	"fft00/default/true":          "9eb01e61a4bfa835af39266837f7ac40b1c1565bcd2d1d1be8de8c7786358a2c",
	"fft00/default/false":         "b6b45d6fe139acb38b7d5941c77bbe143672c89182c3312b6f8c0374ea99bfa1",
	"fft00/merit/true":            "3ef7b220ae1afb45fd9502b082fa4af65a9ea10cea0b272dd44e602b12241b38",
	"fft00/merit/false":           "3b36420608d5e8927a5beb4cb081416cf47c5974f6f023677075a017e393b28f",
	"fft00/reuse/true":            "3ef7b220ae1afb45fd9502b082fa4af65a9ea10cea0b272dd44e602b12241b38",
	"fft00/reuse/false":           "3b36420608d5e8927a5beb4cb081416cf47c5974f6f023677075a017e393b28f",
	"fft00/area/true":             "90b52e8f00368661755eebe1a49613313fee94ed05c80a63b843bfc0d315b868",
	"fft00/area/false":            "3b36420608d5e8927a5beb4cb081416cf47c5974f6f023677075a017e393b28f",
	"fft00/energy/true":           "3ef7b220ae1afb45fd9502b082fa4af65a9ea10cea0b272dd44e602b12241b38",
	"fft00/energy/false":          "3b36420608d5e8927a5beb4cb081416cf47c5974f6f023677075a017e393b28f",
	"fft00/latency/true":          "7f1797b8fba6aa59d60e5258219b539930e4d0e3986c13730999e1a1113fb3c9",
	"fft00/latency/false":         "23152280657ce87ab937032cea905b6c73d3a4b04f1a59f27e813d71294e3030",
	"fft00/class/true":            "3ef7b220ae1afb45fd9502b082fa4af65a9ea10cea0b272dd44e602b12241b38",
	"fft00/class/false":           "3b36420608d5e8927a5beb4cb081416cf47c5974f6f023677075a017e393b28f",
	"fft00/pareto/true":           "82f266f2550a6fabbfb965c512263ef27bff81de6f8b8c3000a3f8360bb4a1eb",
	"fft00/pareto/false":          "8f6f4636a3dd065777f81bced9e10fd65eb3fcc3023c6af043ac8f8210e41b8a",
}

// dotGoldens are the sha256 digests of the -dot rendering of three
// kernels under the default flags.
var dotGoldens = map[string]string{
	"viterb00":    "93f18ad72438b018e2bcb3e2a2cbfd485ab43b0c19506cc89727ce8a07ac706a",
	"adpcm_coder": "428f3c70f56b39a174149b68159287167fcd5b4d273f9769fdc950b94d30d6b2",
	"fft00":       "76a72f6dd68592f34d1aec8d57ccb0b9fd8964a1c45134bd659c339a59c70685",
}

// TestTextOutputGoldenHashes pins the text report byte for byte across the
// kernel × objective × reuse matrix, and the -dot file of three kernels.
func TestTextOutputGoldenHashes(t *testing.T) {
	files := kernelFiles(t)
	for _, k := range kernels.All() {
		for _, obj := range textObjectives {
			for _, reuse := range []bool{true, false} {
				key := fmt.Sprintf("%s/%s/%t", k.Name, obj.name, reuse)
				args := append([]string(nil), obj.args...)
				if !reuse {
					args = append(args, "-noreuse")
				}
				r := runIsegen(t, append(args, files[k.Name])...)
				if r.code != 0 {
					t.Errorf("%s: exit %d: %s", key, r.code, r.stderr)
					continue
				}
				if got := digest([]byte(r.stdout)); got != textGoldens[key] {
					t.Errorf("%s: text digest %s, want %s", key, got, textGoldens[key])
				}
			}
		}
	}
	for name := range dotGoldens {
		dot := filepath.Join(t.TempDir(), name+".dot")
		plain := runIsegen(t, files[name])
		r := runIsegen(t, "-dot", dot, files[name])
		if r.code != 0 {
			t.Errorf("%s -dot: exit %d: %s", name, r.code, r.stderr)
			continue
		}
		if want := plain.stdout + "wrote " + dot + "\n"; r.stdout != want {
			t.Errorf("%s -dot: stdout\n%s\nwant\n%s", name, r.stdout, want)
		}
		b, err := os.ReadFile(dot)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(b); got != dotGoldens[name] {
			t.Errorf("%s: dot digest %s, want %s", name, got, dotGoldens[name])
		}
	}
}

// TestTextMatchesJSON requires the text report to state the same result as
// the -json stream for every engine: the same application line, one ISE
// entry per selection, and a skipped line for every block the engine did
// not run on.
func TestTextMatchesJSON(t *testing.T) {
	files := kernelFiles(t)
	// fft00's 104-node butterfly block exceeds the node limit of the
	// exact engines (25 for exact and racing, 100 for iterative).
	wantSkip := map[string]bool{"exact": true, "iterative": true, "racing": true}
	for _, algo := range search.Names() {
		for _, kernel := range []string{"viterb00", "fft00"} {
			key := algo + "/" + kernel
			text := runIsegen(t, "-algo", algo, files[kernel])
			if text.code != 0 {
				t.Errorf("%s: text run exit %d: %s", key, text.code, text.stderr)
				continue
			}
			js := runIsegen(t, "-json", "-algo", algo, files[kernel])
			if js.code != 0 {
				t.Fatalf("%s: -json run exit %d: %s", key, js.code, js.stderr)
			}
			var sum service.Summary
			var skipped []string
			for _, line := range strings.Split(strings.TrimSpace(js.stdout), "\n") {
				var rec service.BlockResult
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				switch rec.Type {
				case "block":
					if rec.Skipped != "" {
						skipped = append(skipped, fmt.Sprintf("block %q skipped: %s", rec.Name, rec.Skipped))
					}
				case "summary":
					if err := json.Unmarshal([]byte(line), &sum); err != nil {
						t.Fatalf("%s: %v", key, err)
					}
				}
			}
			lines := strings.Split(strings.TrimSuffix(text.stdout, "\n"), "\n")
			if got, want := lines[len(lines)-1], applicationLine(&sum); got != want {
				t.Errorf("%s: text reports %q, -json %q", key, got, want)
			}
			ises := 0
			for _, line := range lines {
				if strings.HasPrefix(line, "ISE ") {
					ises++
				}
			}
			if ises != sum.ISEs {
				t.Errorf("%s: text lists %d ISEs, -json %d", key, ises, sum.ISEs)
			}
			if kernel == "fft00" && wantSkip[algo] != (len(skipped) > 0) {
				t.Errorf("%s: -json skipped blocks %q, want a skip: %t", key, skipped, wantSkip[algo])
			}
			for _, line := range skipped {
				if !slices.Contains(lines, line) {
					t.Errorf("%s: text report lacks %q", key, line)
				}
			}
		}
	}
}
