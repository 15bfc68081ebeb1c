//===- perfbench/src/Pins.h - Output digests pinned per seed ----*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workload seed picks one row (seed mod row count). Each row names a
/// corpus seed and the digests (Layers.h) of what the program produced for
/// that corpus when the benchmark was defined: the SWP-off and SWP-on
/// labeled datasets, the Figure 4 and 5 speedup reports, and the Table 2
/// NN and LS-SVM LOOCV predictions. A run whose outputs differ counts the
/// mismatch as a failed operation. Regenerate the table with
/// `perfbench --print-pins` only in a change that means to alter outputs.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_PERFBENCH_PINS_H
#define METAOPT_PERFBENCH_PINS_H

#include "Layers.h"

namespace perfbench {

inline constexpr Pin PinnedSeeds[] = {
    {20050320, 2685,
     0xc19ecd0909e9d9a0ULL, 0x2750eca0f64ae226ULL,
     0xdedd24a50f9efaf7ULL, 0x868d950b89b9fb16ULL,
     0xf66bc0f9a4b38fedULL, 0x118aa3ddb446a40bULL},
    {420, 2685,
     0x2050680dea3cd5e2ULL, 0xe2d3d8a5f36a30a2ULL,
     0x37aa4ab00404d682ULL, 0x3085ea6571af21ceULL,
     0xe7e841f934d8c9e1ULL, 0x8f88ec9cacea17ebULL},
    {528, 2685,
     0x96c50c9bdb8c1674ULL, 0xa6906feb72e3cddeULL,
     0xa44616d45888e535ULL, 0xc861da31c0ef0931ULL,
     0xd6fedfd761728543ULL, 0xe9a50bbf8ef45962ULL},
    {699, 2685,
     0x8cfa8292acf80e21ULL, 0x56bc55336483dddcULL,
     0x818bce97d2a289f7ULL, 0xa9e58f9458478873ULL,
     0xdcc69d43d1d39748ULL, 0xa1de90916344bd20ULL},
    {746, 2685,
     0x70a4ef71c61fd57eULL, 0xbcda944d3aa3643fULL,
     0x2915bd25710d241aULL, 0x8b55b1c5283b7f77ULL,
     0x41592e380bcaaf0aULL, 0xeeb754a9602839abULL},
    {1127, 2685,
     0x4d20a75b6b3a4a57ULL, 0xd6df09e7b0c8918bULL,
     0x0cf893d3ab5136b6ULL, 0xa313981741414777ULL,
     0xde8df810df6e7206ULL, 0x708911465cd07e47ULL},
    {1146, 2685,
     0x545d5f4014e6b16dULL, 0x591576ca4e2f71a8ULL,
     0x3a215f39242311e1ULL, 0x92189e751e03bde0ULL,
     0xa3cbbbec16137b85ULL, 0xa47cf727c424ffcbULL},
    {1383, 2685,
     0x1ddfd4816bdaf787ULL, 0xba9a73242c7b02cdULL,
     0x973f0737f898e792ULL, 0x3dfeb49b1b96ef7eULL,
     0xf5d05801b1e0a34cULL, 0x6bddee5027d4b96dULL},
};

} // namespace perfbench

#endif // METAOPT_PERFBENCH_PINS_H
