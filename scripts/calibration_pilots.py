#!/usr/bin/env python3
"""Reproduce the pilot runs whose counts are frozen into the test suite:
certificate pass rates on F_3^8, the Fourier sup bound on F_3^10, and the
flower hit rate on F_3^6.  Rerunning this script documents where every
statistical threshold in tests/ came from."""

import math

import numpy as np

from fpnreg.cayley import sigma_certificate
from fpnreg.randmodel import fourier_sup_report, sample_exact
from fpnreg.rng import substream
from fpnreg.threeap import flower_find
from fpnreg.vectorspace import DenseSubset, SpaceDescriptor


def cert_rates():
    sp38 = SpaceDescriptor(3, 8)
    for label, r in (("30*sqrt(N)", int(30 * math.sqrt(sp38.N))), ("N/2", sp38.N // 2)):
        passes = sum(
            sigma_certificate(sample_exact(sp38, r, s), 0.1, 0.5).passed for s in range(100)
        )
        print(f"sigma-certificate (0.1,0.5) on F_3^8, r={label}: {passes}/100")


def sup_rate():
    sp310 = SpaceDescriptor(3, 10)
    r = int(30 * math.sqrt(sp310.N))
    passes = sum(fourier_sup_report(sample_exact(sp310, r, s)).passed for s in range(100))
    print(f"Fourier sup < r/(N ln N) on F_3^10, r={r}: {passes}/100")


def flower_rates():
    sp36 = SpaceDescriptor(3, 6)
    for eps in (0.3, 0.15):
        found = 0
        for seed in range(50):
            R = sample_exact(sp36, sp36.N // 2, seed)
            gen = substream(seed, 1)
            members = R.members()
            pick = np.sort(gen.choice(len(members), size=R.card // 2, replace=False))
            A = DenseSubset.from_members(sp36, members[pick])
            found += flower_find(A, 3, eps, 0.5, 1).found
        print(f"flower_find hit rate on F_3^6 (m=3, eps={eps}, alpha=0.5): {found}/50")


if __name__ == "__main__":
    cert_rates()
    sup_rate()
    flower_rates()
