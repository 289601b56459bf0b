package main

// Pinned outputs: FNV-64a hashes of fabric.Metrics.Fingerprint strings
// (flagship, service jobs) and of the quick suite's rendered output.
// A change that only makes the program faster leaves every one of them
// unchanged. A failed pin check prints the hash the run computed, which
// is the value to pin after a change that is meant to alter outputs.

// flagshipPins maps a flagship timeline length (slots) to the hash of
// its final fingerprint at the default seed. 4320 slots is the timeline
// of --seconds 20, the run_seconds of BENCHMARK.json.
var flagshipPins = map[uint64]string{4320: "38fcc5533805c034"}

// servicePins maps each catalogue job to its result fingerprint hash.
var servicePins = map[string]string{
	"u32-3s-flppr":  "b679b8ba1dc5b24c",
	"b32-5s-islip":  "57caae58c594e5a1",
	"m64-3s-flppr":  "c5821851fa135851",
	"i64-5s-islip":  "b36259522631e073",
	"u128-3s-islip": "4a3ddf3825c8def6",
	"b128-5s-flppr": "f8d009ed26afa2a9",
	"m128-3s-flppr": "457619aa588a32e3",
	"i128-3s-flppr": "261722694eb9f830",
}

// quickPin is the hash of `experiments -quick` output at the default
// experiment seed.
var quickPin = "6a5ac03fb395c8ac"
