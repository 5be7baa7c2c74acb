"""Every template the builders make, pinned by digests of their tables."""

import hashlib

from ttp2.even import build_even_template, compute_L
from ttp2.odd import build_odd_template

TEMPLATES_SHA256 = "7ed8c7e99ce1ad92bf133e9c77ed58e21c9261d6966489c62f50109d140b38fb"
# Computed with the builders as they were before the odd slots were built
# from the even circle (per-slot loops in both modules).
LARGE_TEMPLATES_SHA256 = "b6e2db7980c83af569dda37a2e05719b32e7e404e020ed0bfb3097b96f13bfd9"


def test_templates_unchanged_up_to_122():
    # n = 0 (mod 4): every valid packing; n = 2 (mod 4): the odd construction.
    digest = hashlib.sha256()
    count = 0
    for n in range(8, 123, 2):
        if n % 4 == 0:
            templates = [build_even_template(n, p) for p in compute_L(n)[2]]
        else:
            templates = [build_odd_template(n)] if n >= 10 else []
        for template in templates:
            digest.update(template.table.tobytes())
            count += 1
    assert count == 110
    assert digest.hexdigest() == TEMPLATES_SHA256


def test_templates_unchanged_from_124_to_402():
    # n = 0 (mod 4) up to 360: the base construction and the best packing;
    # n = 2 (mod 4) up to 402: the odd construction.
    digest = hashlib.sha256()
    count = 0
    for n in range(124, 403, 2):
        if n % 4 == 0:
            templates = [build_even_template(n, p) for p in (1, "auto")] if n <= 360 else []
        else:
            templates = [build_odd_template(n)]
        for template in templates:
            digest.update(template.table.tobytes())
            count += 1
    assert count == 190
    assert digest.hexdigest() == LARGE_TEMPLATES_SHA256
