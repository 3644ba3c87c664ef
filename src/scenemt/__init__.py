"""Scene-aware attention masking and a small encoder-decoder NMT toolkit."""

__version__ = "0.1.0"

from .masks import (  # noqa: F401
    Alignment,
    Mask,
    MaskSpec,
    binary_scene_mask,
    expand_to_subwords,
    f_norm,
    normal_scene_mask,
    pascal_mask,
    scaled_scene_mask,
    udiscal_mask,
)
from .model import (  # noqa: F401
    DecodeConfig,
    HeadSpec,
    Model,
    ModelConfig,
    TrainConfig,
    aggregated_keys,
    attention,
    train,
    translate,
)
from .semgraph import (  # noqa: F401
    SceneCover,
    UccaGraph,
    UdGraph,
    extract_scenes,
    parse_conllu,
    scene_distance,
    sem_split,
)
