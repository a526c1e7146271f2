"""Regenerate the JSON fixtures in this directory.

Device specs are the published numbers for the four Jetson boards; the
model profile is a small RepVGG-style backbone built from the package's own
cost formulas; the intensity table carries published whole-model values.
"""

import json
from pathlib import Path

from codesign.profiles import (
    FULL_STRUCTURE,
    AccuracyPenaltyTable,
    Config,
    DeviceProfile,
    FusionStrategy,
    LinkProfile,
    ModelProfile,
    config_to_dict,
    total_load,
)
from codesign.reparam import plain_conv_layer, rep_block_layer

HERE = Path(__file__).parent

DEVICES = {
    "jetson_nano": {"name": "jetson-nano", "peak_compute": 472e9,
                    "mem_bandwidth": 25.6e9, "utilization": 1.0},
    "jetson_tx1": {"name": "jetson-tx1", "peak_compute": 1e12,
                   "mem_bandwidth": 25.6e9, "utilization": 1.0},
    "jetson_tx2": {"name": "jetson-tx2", "peak_compute": 1.33e12,
                   "mem_bandwidth": 59.7e9, "utilization": 1.0},
    "jetson_nx": {"name": "jetson-nx", "peak_compute": 21e12,
                  "mem_bandwidth": 51.2e9, "utilization": 1.0},
}

INTENSITIES = [
    {"name": "RepVGG", "original_intensity": 19.81, "fused_intensity": 14.29},
    {"name": "Rep-ResNet-50", "original_intensity": 38.78, "fused_intensity": 34.65},
    {"name": "Rep-ResNet-101", "original_intensity": 44.44, "fused_intensity": 38.73},
    {"name": "Rep-ResNet-152", "original_intensity": 49.13, "fused_intensity": 42.56},
    {"name": "Rep-MobileNetV1", "original_intensity": 11.47, "fused_intensity": 10.38},
    {"name": "Rep-ShuffleNet V1", "original_intensity": 9.62, "fused_intensity": 8.18},
    {"name": "Rep-EfficientNet", "original_intensity": 10.48, "fused_intensity": 8.52},
    {"name": "Rep-GoogLeNet", "original_intensity": 32.43, "fused_intensity": 24.89},
]


def backbone_layers():
    """Small RepVGG-style stack for a 32x32 input: stem conv, three stages
    of fusible blocks with strided convs between them, and a dense head."""
    layers = [plain_conv_layer(0, 3, 16, 16, 16, in_height=32, in_width=32)]
    for stage, (channels, size, blocks) in enumerate(((16, 16, 3), (32, 8, 4), (64, 4, 3))):
        if stage:  # a strided conv into each later stage: 2x channels, half the side
            layers.append(plain_conv_layer(len(layers), channels // 2, channels, size, size,
                                           in_height=2 * size, in_width=2 * size))
        for _ in range(blocks):
            layers.append(rep_block_layer(len(layers), channels, size, size))
    layers.append(plain_conv_layer(len(layers), 64, 128, 1, 1, kernel=4, in_height=4, in_width=4))
    return layers


def main():
    for stem, spec in DEVICES.items():
        (HERE / f"{stem}.json").write_text(json.dumps(spec, indent=2) + "\n")

    (HERE / "model_intensities.json").write_text(
        json.dumps({"schema_version": 1, "models": INTENSITIES}, indent=2) + "\n")

    # the records validate the config before it is written; penalties are
    # listed in FusionStrategy order: conv3, conv3+skip, conv3+conv1, everything
    config = Config(DeviceProfile(**DEVICES["jetson_nano"]),
                    DeviceProfile(**DEVICES["jetson_nx"]),
                    LinkProfile(12.5e6),  # 100 Mbps
                    ModelProfile("repvgg-mini", tuple(backbone_layers())),
                    AccuracyPenaltyTable({1: dict(zip(FusionStrategy, (2.0, 1.2, 0.8, 0.0))),
                                          2: dict(zip(FusionStrategy, (2.6, 1.5, 1.0, 0.0)))}),
                    0.01)
    (HERE / "paper.json").write_text(json.dumps(config_to_dict(config), indent=2) + "\n")

    flops, data = total_load(config.model, FULL_STRUCTURE)
    print(f"paper.json model: {len(config.model.layers)} layers, "
          f"full-structure intensity {flops / data:.2f} FLOP/byte")


if __name__ == "__main__":
    main()
