"""Fuzz-promoted workload: high-alias loop nest.

Born as generator seed 10 under ``GenConfig(size="medium",
raw_mem_prob=0.85)`` and promoted from the fuzz corpus because it is the
suite's densest store-to-load aliasing stress: 28 raw ``storew``/``loadw``
sites share three word arrays with ``a[i]`` syntax inside an 11-loop nest,
which is exactly the memory-disambiguation edge that limits boosting of
loads.  The source is frozen verbatim (regenerating would couple the
benchmark tables to generator internals); ``generate_program(10,
GenConfig(size="medium", raw_mem_prob=0.85))`` replays its ancestry
(``raw_mem_prob`` is a ``GenConfig`` knob, not a CLI flag).
"""

from __future__ import annotations

from repro.workloads.registry import Workload, register

SOURCE = """\
global inp0[32];
global arr1[32] = { -36, -12, -12, -38, 23, 10, 61, -33, 69, 89, 40, 30, 13, -16, -22, 83, 10, -28, 1, -9, 68, 35, 34, 79, 77, -18, 72, 27, 38, -37, 72, 13 };
global arr2[32] = { 22, -22, 75, 25, 16, 53, 38, -38, 21, 45, -9, 64, -4, 26, 90, 89, -32, 67, -22, 71, -31, 56, 69, -26, 38, 51, -23, 82, -9, 31, 23, 22 };
global gsum = 0;

func fn0(p0) {
    if (p0 <= 0) { return 3; }
    return (((110) % (((159) & 15) + 7)) + (p0)) + fn0(p0 - 1);
}

func fn1(p0, p1, p2) {
    gsum = (((loadw(addr(inp0) + 4 * ((p1) & 31))) & (170)) + ((p1) & (p0))) + (((arr2[(p0) & 31]) + (p2)) / (((p0) & 15) + 2));
    storew(addr(arr2) + 4 * ((((-(p1)) ^ (-(p0))) + ((-(p0)) + (loadw(addr(inp0) + 4 * ((p2) & 31))))) & 31), ((-25) & (loadw(addr(inp0) + 4 * ((p2) & 31)))) % (((143) & 15) + 6));
    for (var i1 = 0; i1 < 19; i1 = i1 + 1) {
        var i2 = 0;
        while (i2 < 14) {
            storew(addr(arr2) + 4 * ((((61) * (p1)) | (((loadw(addr(inp0) + 4 * ((p0) & 31)) >> 6)) ^ (loadw(addr(arr1) + 4 * ((p2) & 31))))) & 31), ((p0) / (((loadw(addr(arr1) + 4 * ((i2) & 31))) & 15) + 7)) % (((p2) & 15) + 7));
            gsum = gsum + loadw(addr(arr2) + 4 * ((((p1) / (((inp0[(p1) & 31]) & 15) + 1)) - (80)) & 31));
            i2 = i2 + 1;
        }
    }
    return p0 + ((((p1) % (((~(p1)) & 15) + 2) >> 3)) + ((196) & (-(p2))));
}

func main() {
    var acc = 1;
    var v3 = -22;
    var v4 = -21;
    var v5 = -9;
    v4 = (((loadw(addr(arr1) + 4 * ((v3) & 31))) / (((v3) & 15) + 5)) % (((loadw(addr(inp0) + 4 * ((v5) & 31))) & 15) + 2)) - (-51);
    var i6 = 0;
    while (i6 < 8) {
        for (var i7 = 0; i7 < 15; i7 = i7 + 1) {
            for (var i8 = 0; i8 < 6; i8 = i8 + 1) {
                print(v5 & 1023);
                var v9 = (((147 << 3)) - ((103) ^ (~(v3)))) + (((acc) + (i8)) * ((-(acc)) - (loadw(addr(inp0) + 4 * ((i8) & 31)))));
                acc = (((loadw(addr(arr2) + 4 * ((v5) & 31))) % (((i8) & 15) + 6)) ^ ((~(v9)) + (i6))) + (((-(v9)) | (~(v3))) | ((loadw(addr(arr2) + 4 * ((acc) & 31))) | (arr1[(v9) & 31])));
                if (((v5 * 53 + 136) & 255) < 52) {
                }
            }
        }
        i6 = i6 + 1;
    }
    v5 = ~(v5);
    inp0[(acc) & 31] = v4;
    v3 = v3 + loadw(addr(inp0) + 4 * ((((-(v3)) ^ (loadw(addr(arr2) + 4 * ((v3) & 31)))) + ((v4) & (~(v4)))) & 31));
    var i10 = 0;
    while (i10 < 13) {
        var v11 = (v4) ^ (((v4) % (((i10) & 15) + 5)) % (((loadw(addr(inp0) + 4 * ((i10) & 31))) & 15) + 2));
        storew(addr(arr1) + 4 * ((((v3) * (~(acc))) - (v5)) & 31), ((v5) - (loadw(addr(arr1) + 4 * ((acc) & 31)))) % (((92) & 15) + 3));
        v5 = v5 + loadw(addr(arr1) + 4 * ((-(v11)) & 31));
        var i12 = 0;
        while (i12 < 12) {
            for (var i13 = 0; i13 < 8; i13 = i13 + 1) {
                if (((v11 * 29 + 227) & 255) < 24) {
                } else {
                }
            }
            i12 = i12 + 1;
        }
        i10 = i10 + 1;
    }
    var i14 = 0;
    while (i14 < 14) {
        storew(addr(inp0) + 4 * (((((v4 >> 6)) + (loadw(addr(arr1) + 4 * ((v3) & 31)))) - (~(v4))) & 31), ((-(v5)) / (((v4) & 15) + 1)) / (((~(v5)) & 15) + 2));
        acc = acc + inp0[(((loadw(addr(arr1) + 4 * ((v3) & 31))) * (~(i14))) + ((-21) ^ (v4))) & 31];
        storew(addr(arr1) + 4 * ((((~(v5)) & (-50)) + (~(acc))) & 31), (i14) & (arr2[(v3) & 31]));
        gsum = gsum + loadw(addr(arr1) + 4 * ((184) & 31));
        var i15 = 0;
        while (i15 < 14) {
            storew(addr(arr2) + 4 * ((i15) & 31), i14);
            v4 = v4 + loadw(addr(arr2) + 4 * ((((-93) % (((-(v3)) & 15) + 7)) + ((v5) % (((inp0[(acc) & 31]) & 15) + 4))) & 31));
            if (((v3 * 71 + 39) & 255) < 225) {
                var i16 = 0;
                while (i16 < 18) {
                    i16 = i16 + 1;
                }
            }
            i15 = i15 + 1;
        }
        i14 = i14 + 1;
    }
    if (((v3 * 37 + 116) & 255) < 239) {
        var v17 = loadw(addr(inp0) + 4 * ((acc) & 31));
        if (((v3 * 89 + 112) & 255) < 243 && (acc & 1) != 0) {
        }
    } else {
    }
    print(acc);
    print(gsum);
}
"""

TRAIN = {"inp0": [22, 19333, 20, -27, 9, 53, 39, 0, 47, -5, 52, 38416, 29, -12, 32, 31, 17, 60, 11, 16711, 8, 52, -48, 55193, 63560, -22, 8, 13, 32, -16, 49, 12]}

EVAL = {"inp0": [-13, 35, 8, 66933, 52, 21, -45, 87384, 4711, 40, -41, -31, -44, 25, 8, 51, 42, 52, 49, 35, 16, -34, 30, -20, 3, 17, 20, 0, 48, 45, -12, 38967]}

WORKLOAD = register(Workload(
    name='fuzzalias',
    paper_benchmark='(fuzz corpus)',
    description='high-alias loop nest promoted from the fuzz corpus',
    source=SOURCE,
    train=TRAIN,
    eval=EVAL,
))
