"""Every template the builders make, pinned by one digest of their tables."""

import hashlib

from ttp2.even import build_even_template, compute_L
from ttp2.odd import build_odd_template

TEMPLATES_SHA256 = "7ed8c7e99ce1ad92bf133e9c77ed58e21c9261d6966489c62f50109d140b38fb"


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
