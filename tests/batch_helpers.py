"""A reference batch-CSV row reader for the tests: file iteration in UTF-8
text mode, blank lines skipped, ``float()`` on each row with its line break, and
``BATCH_CHUNK`` rows to a block, with ``BatchFile.blocks``'s refusals."""

from itertools import islice

import numpy as np

from opatomo import chain


def reference_blocks(path, n_shots: int):
    count, finite = 0, True
    with open(path, encoding="utf-8") as fh:
        fh.readline()  # the header line
        fh.readline()  # the column line
        values = map(float, filter(str.strip, fh))
        while (block := np.fromiter(islice(values, chain.BATCH_CHUNK), dtype=float)).size:
            count += block.size
            finite = finite and bool(np.isfinite(block).all())
            if finite:
                yield block
    if count != n_shots:
        raise ValueError(f"{path}: header says n_shots = {n_shots} but the file holds "
                         f"{count} outcomes")
    if not finite:
        raise ValueError(f"{path}: outcomes must be finite")
