// Constants of the vector sin/cos shared by every vector kernel family
// (kernels_avx2.cpp's 4-lane sincos4, kernels_avx512.cpp's 8-lane
// sincos8). Both families evaluate the same lane-wise sequence of
// operations on these constants, so a lane's result does not depend on
// the register width — the basis of the avx512 == avx2 bit-identity
// contract for the phase kernels (DESIGN.md "SIMD kernel layer").
#pragma once

namespace qokit::simd::sincos {

// Three-term Cody–Waite split of pi/2 (Cephes DP1..DP3 doubled). Each
// k*DPx product is formed inside a single-rounding fnmadd, so the
// reduction error is dominated by the residual pi/2 - (DP1+DP2+DP3)
// (~3e-22): at the kHugeAngle bound (|k| ~ 6.4e8) the reduced argument is
// off by at most ~2e-13 absolute, inside the layer's 1e-12 parity budget;
// for the |angle| <~ 1e4 regime real gammas produce it is ~1e-18.
inline constexpr double kDP1 = 1.57079625129699707031e+00;
inline constexpr double kDP2 = 7.54978941586159635335e-08;
inline constexpr double kDP3 = 5.39030285815811905290e-15;
inline constexpr double kTwoOverPi = 6.36619772367581382433e-01;
// Beyond this magnitude the int32 quadrant index could overflow; the caller
// falls back to libm for the whole 4-lane group (never hit by sane gammas).
inline constexpr double kHugeAngle = 1.0e9;

// Cephes minimax coefficients for sin/cos on |r| <= pi/4 (highest first).
inline constexpr double kSinCof[6] = {
    1.58962301576546568060e-10, -2.50507477628578072866e-8,
    2.75573136213857245213e-6,  -1.98412698295895385996e-4,
    8.33333333332211858878e-3,  -1.66666666666666307295e-1,
};
inline constexpr double kCosCof[6] = {
    -1.13585365213876817300e-11, 2.08757008419747316778e-9,
    -2.75573141792967388112e-7,  2.48015872888517179954e-5,
    -1.38888888888730564116e-3,  4.16666666666665929218e-2,
};

}  // namespace qokit::simd::sincos
