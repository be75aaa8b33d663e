"""Post-processing: scoring, confidence filter, NMS and cross-class removal.

Run from the repository root:  python3 demos/05_detection_pipeline.py
"""

import numpy as np

from maskdet import ModelConfig, Predictions, encode, generate_anchors, nms, orcc, postprocess
from maskdet.anchors import FACE, MASK
from maskdet.postproc import Detection

# --- NMS on a hand-built pile of boxes -----------------------------------
boxes = np.array([[10, 10, 50, 50],
                  [12, 12, 52, 52],      # near-duplicate of the first
                  [100, 100, 150, 150.0]])
scores = np.array([0.9, 0.8, 0.7])
kept_boxes, kept_scores = nms(boxes, scores, iou_thresh=0.4)
print("NMS keeps", len(kept_boxes), "of", len(boxes), "boxes:", kept_scores)

# --- ORCC: a face and a mask fighting over the same pixels ---------------
face = Detection(np.array([0.0, 0, 10, 10]), FACE, 0.9)
mask = Detection(np.array([1.0, 1, 11, 11]), MASK, 0.8)
faces, masks = orcc([face], [mask], thresh=0.4)
print(f"ORCC on an overlapping pair: {len(faces)} face(s), {len(masks)} mask(s)"
      " survive (lower confidence loses)")

# --- the full chain on synthetic head outputs ----------------------------
# Build predictions for a small config: one strong face and one strong mask
# decoded onto the SAME box, everything else confidently background.
config = ModelConfig(input_size=32, fpn_channels=8)
anchors = generate_anchors(config)
p = len(anchors)
loc = np.zeros((p, 4))
cls = np.zeros((p, 3))
cls[:, 0] = 50.0
target = np.array([2.0, 2.0, 12.0, 12.0])
loc[0] = encode(target, anchors.anchors[0])
cls[0] = [0.0, 12.0, 0.0]      # face logit wins on row 0
loc[1] = encode(target, anchors.anchors[1])
cls[1] = [0.0, 0.0, 10.0]      # mask logit wins on row 1
pred = Predictions(loc.astype(np.float32), cls.astype(np.float32))

detections = postprocess(pred, anchors, image_size=32.0,
                         conf_thresh=0.5, nms_iou=0.4, orcc_iou=0.5)
print(f"\nfull chain: {len(detections)} detection(s) survive")
for d in detections:
    name = "face" if d.label == FACE else "mask"
    print(f"  {name} conf={d.confidence:.4f} box={np.round(d.box, 2)}")
