// Shared by trust_test (the exact bytes) and the determinism binary (the
// same bytes at 1/2/8 threads).
#ifndef ETA2_TESTS_TRUTH_TRIMMED_V1_GOLDEN_H
#define ETA2_TESTS_TRUTH_TRIMMED_V1_GOLDEN_H

namespace eta2::truth {

// The kTrimmedV1 pinned transcript (referenced from truth/trust.h): the
// labeled golden scenario with the defenses on. Captured once from the
// build that introduced DefenseTier::kTrimmedV1 — hexfloat truth/sigma,
// full allocation order, and the save blob with its trust-ledger trailer.
// Any change to the defended estimation path (filter order, trim
// tie-breaks, the trusted sweep, ledger persistence) must either reproduce
// these bytes or ship as a new tier with its own transcript.

inline constexpr const char* kTrimmedV1_transcript =
    R"GOLD(step 0 warmup=1 mle_iters=1 data_iters=1 cost=0x1.18p+5
domains: 0 1 2 0 1
alloc: 0:4,0,3,1,5,2 1:1,4,0,2,3,5 2:1,4,3 3:5,0,4,3,2 4:1,5,0,2
truth: 0x1.47ff93d49939ap+3 0x1.992b241549a9dp+3 0x1.04a4c8be876c8p+4 0x1.2c82fcd266907p+4 0x1.61149bada7b25p+4
sigma: 0x1.c216cfb05dd24p-3 0x1.afb355227bbc7p-3 0x1.92f13ee8c2997p-4 0x1.f2ecb3ac56b96p-3 0x1.7486897feb66ep-3
step 1 warmup=0 mle_iters=2 data_iters=1 cost=0x1.1p+5
domains: 1 2 0 1 2
alloc: 0:1,4,3,5,2,0 1:4,1,2,5,0,3 2:4,1,3,2 3:1,3,5,0 4:4,2,5,0
truth: 0x1.6345b71eeaa4bp+3 0x1.bd9af73fb9ad8p+3 0x1.166789c24876dp+4 0x1.3e926f21d87cdp+4 0x1.70d26f92681a3p+4
sigma: 0x1.7c8393915db8fp-2 0x1.74b04b9e3434ap-2 0x1.2f5e7b8f25febp-3 0x1.f9f8b31f0a512p-3 0x1.206077b494222p-2
step 2 warmup=0 mle_iters=2 data_iters=1 cost=0x1.1p+5
domains: 2 0 1 2 0
alloc: 0:4,0,1,3,2,5 1:1,4,2,0,3,5 2:3,1,2,0 3:4,0,3,5 4:1,4,2,5
truth: 0x1.7bc267c9e1609p+3 0x1.e35d27394efe1p+3 0x1.24d44bead3136p+4 0x1.56b31c67dc64fp+4 0x1.800c74be10a67p+4
sigma: 0x1.66a16dd1b5761p-2 0x1.5408e438c56c1p-2 0x1.7887848abdab1p-3 0x1.6a4b677ec081p-4 0x1.a62c70941c332p-2
)GOLD";

inline constexpr const char* kTrimmedV1_saved = R"GOLD(eta2-server v1
1
expertise-store v1
6 3
1.25 2.5 2
2.75 2 1.75
2.75 2 2
2 1.25 2.75
2.5 0.75 3.25
2.5 1.5 3
3.7674635698983026 2.8629114159088047 3.2934407565763
2.503333963436034 0.5646386975366299 1.7309687456079583
0.39335720373513494 3.9566820752403005 1.4201875182548742
2.626528262728198 0.42273542429369615 4.108103309115151
2.765594788864072 0.6506101568436986 2.1349317840693063
3.17813917249551 3.9509354688244582 2.677853567462035
dynamic-clusterer v1
0.5 0 0 0 0
0
3
0 0
1 1
2 2
trust-ledger v1
6 3
9.119746807278036 8.120000000000001 0 0
7.036964770923964 8.96 0 0
6.364304200212012 9.120000000000001 0 0
7.960830957674897 8.760000000000002 0 0
7.926516026187706 8.96 0 0
9.606040555503258 9.760000000000002 0 0
pairs 0
)GOLD";

inline constexpr const char* kTrimmedV1_post =
    R"GOLD(step 3 warmup=0 mle_iters=2 data_iters=1 cost=0x1.1p+5
domains: 0 1 2 0 1
alloc: 0:2,1,4,5,3,0 1:1,3,4,0,2,5 2:4,2,5,0 3:2,1,5,3 4:1,3,4,0
truth: 0x1.96a5cf08fb274p+3 0x1.04660f9ef9282p+4 0x1.2ed504f8b4d87p+4 0x1.64aa18b0a3cebp+4 0x1.8cc725802445dp+4
sigma: 0x1.c66ad672ce024p-3 0x1.82a12ed9ee008p-3 0x1.abae0685bdcd6p-3 0x1.92c4fc7e9a6d5p-3 0x1.5376207f35db8p-2
)GOLD";

}  // namespace eta2::truth

#endif  // ETA2_TESTS_TRUTH_TRIMMED_V1_GOLDEN_H
