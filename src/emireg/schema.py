"""Names and sizes every module shares: modalities, targets, the VAD latent.

A leaf module: it imports nothing from the package, so any module may use it.
"""

MODALITIES = ("visual", "audio", "text")
TARGET_COLUMNS = ("adm", "amu", "det", "emp", "exc", "joy")
N_TARGETS = len(TARGET_COLUMNS)
VAD_DIM = 3
